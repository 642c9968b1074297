#include "analysis/trace_report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "io/line_reader.hpp"

namespace mcs::analysis {

namespace {

/// An int64 the writer wrote. Numbers parse to doubles, and the writer's
/// largest values (INT64_MAX, where it saturates stamps) round up to 2^63,
/// which as_int refuses; they read back as INT64_MAX.
std::int64_t i64_of(const io::JsonValue& value) {
  if (value.is_number() && value.as_number() == 0x1p63) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return value.as_int();
}

std::uint64_t u64_field(const io::JsonValue& object, std::string_view key) {
  const std::int64_t v = i64_of(object.at(key));
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

TraceRecord decode_trace(const io::JsonValue& line) {
  TraceRecord record;
  record.trace_id = line.at("trace_id").as_string();
  record.round = i64_of(line.at("round"));
  record.shard = static_cast<int>(line.at("shard").as_int());
  record.status = line.at("status").as_string();
  for (const io::JsonValue& reason : line.at("retained").as_array()) {
    record.retained.push_back(reason.as_string());
  }
  record.violations = line.int_or("violations", 0);
  record.open_ns = u64_field(line, "open_ns");
  record.close_ns = u64_field(line, "close_ns");
  record.latency_ns = u64_field(line, "latency_ns");
  record.spans_dropped = line.int_or("spans_dropped", 0);
  for (const io::JsonValue& span : line.at("spans").as_array()) {
    TraceRecord::Span out;
    out.phase = span.at("phase").as_string();
    out.slot = static_cast<std::int32_t>(span.int_or("slot", -1));
    out.start_ns = u64_field(span, "start_ns");
    out.end_ns = u64_field(span, "end_ns");
    record.spans.push_back(std::move(out));
  }
  return record;
}

void decode_summary(const io::JsonValue& line, TraceStreamSummary& out) {
  out.rounds = line.int_or("rounds", 0);
  out.completed = line.int_or("completed", 0);
  out.retained = line.int_or("retained", 0);
  out.retained_slow = line.int_or("retained_slow", 0);
  out.retained_econ = line.int_or("retained_econ", 0);
  out.retained_error = line.int_or("retained_error", 0);
  out.dropped = line.int_or("dropped", 0);
  out.retained_evicted = line.int_or("retained_evicted", 0);
  out.spans_truncated = line.int_or("spans_truncated", 0);
  const io::JsonValue& threshold = line.at("slow_threshold_ns");
  out.slow_threshold_ns = threshold.is_null() ? -1 : i64_of(threshold);
  for (const auto& [name, stats] : line.at("phases").as_object()) {
    TracePhaseStats phase;
    phase.count = stats.int_or("count", 0);
    const io::JsonValue* p50 = stats.find("p50_ns");
    const io::JsonValue* p99 = stats.find("p99_ns");
    phase.p50_ns = (p50 != nullptr && p50->is_number()) ? p50->as_number()
                                                        : 0.0;
    phase.p99_ns = (p99 != nullptr && p99->is_number()) ? p99->as_number()
                                                        : 0.0;
    const io::JsonValue* max = stats.find("max_ns");
    phase.max_ns = max != nullptr ? i64_of(*max) : 0;
    out.phases.emplace(name, phase);
  }
}

void decode_exemplars(const io::JsonValue& line, TraceStreamSummary& out) {
  out.exemplar_threshold_ns = u64_field(line, "threshold_ns");
  for (const io::JsonValue& entry : line.at("entries").as_array()) {
    TraceExemplar exemplar;
    exemplar.bucket_le_ns = u64_field(entry, "le_ns");
    exemplar.latency_ns = u64_field(entry, "latency_ns");
    exemplar.trace_id = entry.at("trace_id").as_string();
    exemplar.round = i64_of(entry.at("round"));
    out.exemplars.push_back(std::move(exemplar));
  }
}

std::string format_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  }
  return buf;
}

std::string pad(std::string text, std::size_t width) {
  if (text.size() < width) text.append(width - text.size(), ' ');
  return text;
}

std::string span_label(const TraceRecord::Span& span) {
  if (span.phase == std::string(obs::to_string(obs::TracePhase::kSlotTick)) &&
      span.slot >= 0) {
    return "slot " + std::to_string(span.slot);
  }
  return span.phase;
}

/// One ASCII waterfall row: the span's position inside the trace window
/// rendered into a fixed-width gutter.
std::string waterfall_bar(const TraceRecord::Span& span, std::uint64_t w0,
                          std::uint64_t w1, std::size_t width) {
  std::string bar(width, ' ');
  const double window = w1 > w0 ? static_cast<double>(w1 - w0) : 1.0;
  const double start =
      span.start_ns > w0 ? static_cast<double>(span.start_ns - w0) : 0.0;
  const double dur = span.end_ns > span.start_ns
                         ? static_cast<double>(span.end_ns - span.start_ns)
                         : 0.0;
  auto offset = static_cast<std::size_t>(start / window *
                                         static_cast<double>(width));
  offset = std::min(offset, width - 1);
  auto len = static_cast<std::size_t>(dur / window *
                                      static_cast<double>(width));
  len = std::max<std::size_t>(len, 1);
  len = std::min(len, width - offset);
  for (std::size_t i = 0; i < len; ++i) bar[offset + i] = '#';
  return bar;
}

}  // namespace

TraceStreamSummary summarize_trace_stream(std::istream& in) {
  TraceStreamSummary out;
  bool have_header = false;
  std::string line;
  for (std::int64_t line_number = 1;; ++line_number) {
    const io::LineRead read = io::read_line(in, line, kMaxTraceLineBytes);
    if (read == io::LineRead::kEnd) break;
    if (read == io::LineRead::kTooLong) {
      throw InvalidArgumentError(
          "trace-report: line " + std::to_string(line_number) +
          ": longer than " + std::to_string(kMaxTraceLineBytes) + " bytes");
    }
    if (line.empty()) continue;
    const io::JsonValue parsed = io::parse_json(line);
    if (!have_header) {
      const io::JsonValue* schema = parsed.find("schema");
      if (schema == nullptr || schema->as_string() != obs::kTraceSchema) {
        throw InvalidArgumentError(
            "trace-report: stream does not start with an " +
            std::string(obs::kTraceSchema) + " header");
      }
      out.shards = static_cast<int>(parsed.int_or("shards", 0));
      out.ring_capacity = parsed.int_or("ring_capacity", 0);
      out.max_spans = parsed.int_or("max_spans", 0);
      const io::JsonValue* threshold = parsed.find("slow_threshold_ns");
      out.auto_threshold = threshold != nullptr && threshold->is_string();
      have_header = true;
      continue;
    }
    const std::string type = parsed.string_or("type", "");
    if (type == "trace") {
      out.traces.push_back(decode_trace(parsed));
    } else if (type == "summary") {
      decode_summary(parsed, out);
    } else if (type == "exemplars") {
      decode_exemplars(parsed, out);
    }
    // Unknown record types: skipped for forward compatibility.
  }
  if (!have_header) {
    throw InvalidArgumentError("trace-report: empty stream (no " +
                               std::string(obs::kTraceSchema) + " header)");
  }
  return out;
}

void render_trace_report(std::ostream& os, const TraceStreamSummary& summary,
                         int top_k) {
  os << obs::kTraceSchema << " -- " << summary.shards << " shard(s), "
     << summary.rounds << " round(s) traced, " << summary.completed
     << " completed\n";
  os << "retained " << summary.retained << " (slow " << summary.retained_slow
     << ", econ " << summary.retained_econ << ", error "
     << summary.retained_error << "), dropped " << summary.dropped
     << ", retained evicted " << summary.retained_evicted
     << ", spans truncated " << summary.spans_truncated << "\n";
  os << "slow threshold: ";
  if (summary.slow_threshold_ns < 0) {
    os << (summary.auto_threshold ? "auto (not warmed up)" : "none");
  } else {
    os << format_ns(static_cast<double>(summary.slow_threshold_ns))
       << (summary.auto_threshold ? " (auto p99)" : " (fixed)");
  }
  os << "\n\n";

  os << "per-phase latency (all rounds, sketch-backed):\n";
  os << "  " << pad("phase", 12) << pad("count", 10) << pad("p50", 12)
     << pad("p99", 12) << "max\n";
  for (std::size_t p = 0; p < obs::kTracePhaseCount; ++p) {
    const std::string name(
        obs::to_string(static_cast<obs::TracePhase>(p)));
    const auto it = summary.phases.find(name);
    if (it == summary.phases.end()) continue;
    const TracePhaseStats& stats = it->second;
    os << "  " << pad(name, 12) << pad(std::to_string(stats.count), 10);
    if (stats.count == 0) {
      os << pad("-", 12) << pad("-", 12) << "-\n";
    } else {
      os << pad(format_ns(stats.p50_ns), 12) << pad(format_ns(stats.p99_ns), 12)
         << format_ns(static_cast<double>(stats.max_ns)) << "\n";
    }
  }

  std::vector<const TraceRecord*> slowest;
  slowest.reserve(summary.traces.size());
  for (const TraceRecord& trace : summary.traces) slowest.push_back(&trace);
  std::sort(slowest.begin(), slowest.end(),
            [](const TraceRecord* a, const TraceRecord* b) {
              if (a->latency_ns != b->latency_ns) {
                return a->latency_ns > b->latency_ns;
              }
              return a->round < b->round;
            });
  if (top_k >= 0 && slowest.size() > static_cast<std::size_t>(top_k)) {
    slowest.resize(static_cast<std::size_t>(top_k));
  }

  os << "\nslowest retained rounds (top " << slowest.size() << " of "
     << summary.traces.size() << "):\n";
  constexpr std::size_t kBarWidth = 32;
  for (const TraceRecord* trace : slowest) {
    os << "  round " << trace->round << "  shard " << trace->shard
       << "  trace " << trace->trace_id << "  " << trace->status << "  [";
    for (std::size_t i = 0; i < trace->retained.size(); ++i) {
      if (i > 0) os << ",";
      os << trace->retained[i];
    }
    os << "]  " << format_ns(static_cast<double>(trace->latency_ns));
    if (trace->violations > 0) {
      os << "  " << trace->violations << " violation(s)";
    }
    os << "\n";
    // Waterfall window: the whole recorded timeline of this trace.
    std::uint64_t w0 = trace->open_ns;
    std::uint64_t w1 = trace->close_ns;
    for (const TraceRecord::Span& span : trace->spans) {
      w0 = std::min(w0, span.start_ns);
      w1 = std::max(w1, span.end_ns);
    }
    for (const TraceRecord::Span& span : trace->spans) {
      os << "    " << pad(span_label(span), 12) << "|"
         << waterfall_bar(span, w0, w1, kBarWidth) << "|  "
         << format_ns(static_cast<double>(span.end_ns >= span.start_ns
                                              ? span.end_ns - span.start_ns
                                              : 0))
         << "\n";
    }
  }

  if (!summary.exemplars.empty()) {
    os << "\nsketch exemplars (latency >= "
       << format_ns(static_cast<double>(summary.exemplar_threshold_ns))
       << "):\n";
    for (const TraceExemplar& exemplar : summary.exemplars) {
      os << "  le "
         << pad(format_ns(static_cast<double>(exemplar.bucket_le_ns)), 12)
         << "worst "
         << pad(format_ns(static_cast<double>(exemplar.latency_ns)), 12)
         << "round " << exemplar.round << "  trace " << exemplar.trace_id
         << "\n";
    }
  }
}

}  // namespace mcs::analysis
