#include "obs/export.hpp"

#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "io/csv.hpp"
#include "io/json.hpp"

namespace mcs::obs {

namespace {

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

void write_histogram_json(io::JsonWriter& json,
                          const MetricsSnapshot::HistogramData& data) {
  json.begin_object();
  json.field("count", data.count);
  json.field("sum", data.sum);
  if (data.count > 0) {
    json.field("min", data.min);
    json.field("max", data.max);
  }
  json.key("buckets").begin_array();
  for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
    json.begin_object();
    if (i < data.boundaries.size()) {
      json.field("le", data.boundaries[i]);
    } else {
      json.field("le", "+Inf");
    }
    json.field("count", data.bucket_counts[i]);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  // Exposition-format grammar: [a-zA-Z_:][a-zA-Z0-9_:]*. The fixed
  // "mcs_" prefix satisfies the first-character rule, so every remaining
  // byte only needs the tail alphabet; anything else (dots, dashes,
  // spaces, UTF-8 from user-influenced strings) collapses to '_'.
  std::string out = "mcs_";
  out.reserve(name.size() + 4);
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  return out;
}

std::string prometheus_label_value(std::string_view value) {
  // Label values admit any UTF-8 but the text format requires escaping
  // backslash, double-quote, and newline inside the quoted value.
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(ch);
    }
  }
  return out;
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry,
                        const TraceCollector* trace,
                        const std::map<std::string, std::string>& meta) {
  const MetricsSnapshot snap = registry.snapshot();
  io::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "mcs.telemetry.v1");
  if (!meta.empty()) {
    json.key("meta").begin_object();
    for (const auto& [key, value] : meta) json.field(key, value);
    json.end_object();
  }
  json.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) json.field(name, value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) json.field(name, value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, data] : snap.histograms) {
    json.key(name);
    write_histogram_json(json, data);
  }
  json.end_object();
  if (trace != nullptr) {
    json.key("trace").begin_array();
    for (const SpanRecord& span : trace->spans()) {
      json.begin_object();
      json.field("name", span.name);
      json.field("depth", static_cast<std::int64_t>(span.depth));
      json.field("parent", static_cast<std::int64_t>(span.parent));
      json.field("start_us", span.start_us);
      json.field("duration_us", span.duration_us);
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  os << '\n';
}

void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  io::CsvWriter csv(os);
  csv.set_header({"kind", "name", "field", "value"});
  for (const auto& [name, value] : snap.counters) {
    csv.write_row({"counter", name, "value", std::to_string(value)});
  }
  for (const auto& [name, value] : snap.gauges) {
    csv.write_row({"gauge", name, "value", format_number(value)});
  }
  for (const auto& [name, data] : snap.histograms) {
    csv.write_row({"histogram", name, "count", std::to_string(data.count)});
    csv.write_row({"histogram", name, "sum", format_number(data.sum)});
    if (data.count > 0) {
      csv.write_row({"histogram", name, "min", format_number(data.min)});
      csv.write_row({"histogram", name, "max", format_number(data.max)});
    }
    for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
      const std::string edge = i < data.boundaries.size()
                                   ? format_number(data.boundaries[i])
                                   : std::string("+Inf");
      csv.write_row({"histogram", name, "le=" + edge,
                     std::to_string(data.bucket_counts[i])});
    }
  }
}

namespace {

/// "# HELP <id> <text>" when a description was registered for `name`.
/// Prometheus HELP text escapes backslash and newline; registered
/// descriptions are one-line by convention, escape anyway.
void write_prometheus_help(std::ostream& os, const MetricsSnapshot& snap,
                           const std::string& name, const std::string& id) {
  const auto it = snap.help.find(name);
  if (it == snap.help.end()) return;
  os << "# HELP " << id << ' ';
  for (const char ch : it->second) {
    if (ch == '\\') {
      os << "\\\\";
    } else if (ch == '\n') {
      os << "\\n";
    } else {
      os << ch;
    }
  }
  os << '\n';
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " counter\n" << id << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " gauge\n"
       << id << ' ' << format_number(value) << '\n';
  }
  for (const auto& [name, data] : snap.histograms) {
    const std::string id = prometheus_name(name);
    write_prometheus_help(os, snap, name, id);
    os << "# TYPE " << id << " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < data.bucket_counts.size(); ++i) {
      cumulative += data.bucket_counts[i];
      const std::string edge = i < data.boundaries.size()
                                   ? format_number(data.boundaries[i])
                                   : std::string("+Inf");
      os << id << "_bucket{le=\"" << edge << "\"} " << cumulative << '\n';
    }
    os << id << "_sum " << format_number(data.sum) << '\n'
       << id << "_count " << data.count << '\n';
  }
}

void write_chrome_trace_events(
    std::ostream& os, const std::vector<ChromeLane>& lanes,
    const std::vector<ChromeEvent>& events,
    const std::map<std::string, std::string>& meta) {
  io::JsonWriter json(os);
  json.begin_object();
  json.key("traceEvents").begin_array();
  json.begin_object();
  json.field("name", "process_name");
  json.field("ph", "M");
  json.field("pid", std::int64_t{1});
  json.field("tid", std::int64_t{1});
  json.key("args").begin_object();
  json.field("name", "mcs");
  json.end_object();
  json.end_object();
  for (const ChromeLane& lane : lanes) {
    json.begin_object();
    json.field("name", "thread_name");
    json.field("ph", "M");
    json.field("pid", lane.pid);
    json.field("tid", lane.tid);
    json.key("args").begin_object();
    json.field("name", lane.name);
    json.end_object();
    json.end_object();
  }
  for (const ChromeEvent& event : events) {
    json.begin_object();
    json.field("name", event.name);
    json.field("cat", "mcs");
    json.field("ph", "X");
    json.field("ts", event.ts_us);
    json.field("dur", event.dur_us);
    json.field("pid", event.pid);
    json.field("tid", event.tid);
    if (event.depth >= 0) {
      json.key("args").begin_object();
      json.field("depth", event.depth);
      json.field("parent", event.parent);
      json.end_object();
    }
    json.end_object();
    if (event.flow_out >= 0) {
      json.begin_object();
      json.field("name", "round");
      json.field("cat", "mcs");
      json.field("ph", "s");
      json.field("id", event.flow_out);
      json.field("ts", event.ts_us + event.dur_us);
      json.field("pid", event.pid);
      json.field("tid", event.tid);
      json.end_object();
    }
    if (event.flow_in >= 0) {
      json.begin_object();
      json.field("name", "round");
      json.field("cat", "mcs");
      json.field("ph", "f");
      json.field("bp", "e");
      json.field("id", event.flow_in);
      json.field("ts", event.ts_us);
      json.field("pid", event.pid);
      json.field("tid", event.tid);
      json.end_object();
    }
  }
  json.end_array();
  json.field("displayTimeUnit", "ms");
  if (!meta.empty()) {
    json.key("otherData").begin_object();
    for (const auto& [key, value] : meta) json.field(key, value);
    json.end_object();
  }
  json.end_object();
  os << '\n';
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans,
                        const std::map<std::string, std::string>& meta) {
  std::vector<ChromeEvent> events;
  events.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    ChromeEvent event;
    event.name = span.name;
    event.ts_us = span.start_us;
    event.dur_us = span.duration_us;
    event.depth = span.depth;
    event.parent = span.parent;
    events.push_back(std::move(event));
  }
  write_chrome_trace_events(os, {}, events, meta);
}

void render_trace_text(std::ostream& os, const TraceCollector& trace) {
  for (const SpanRecord& span : trace.spans()) {
    for (int i = 0; i < span.depth; ++i) os << "  ";
    os << span.name << "  ";
    const double us = static_cast<double>(span.duration_us);
    char buf[64];
    if (us >= 1e6) {
      std::snprintf(buf, sizeof buf, "%.2f s", us / 1e6);
    } else if (us >= 1e3) {
      std::snprintf(buf, sizeof buf, "%.2f ms", us / 1e3);
    } else {
      std::snprintf(buf, sizeof buf, "%lld us",
                    static_cast<long long>(span.duration_us));
    }
    os << buf << '\n';
  }
}

}  // namespace mcs::obs
