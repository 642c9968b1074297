// Offline digest of an "mcs.trace.v1" round-trace stream.
//
// The serve engine's trace plane (serve/trace_plane.hpp) exports retained
// round timelines plus a per-phase summary; this is the read side --
// mcs_cli trace-report parses the JSONL stream back and renders the
// operator view: where the p99 went, phase by phase, with ASCII span
// waterfalls of the slowest retained rounds. Lives in the analysis layer
// (which cannot link serve), so the schema constants and span vocabulary
// come from obs/round_trace.hpp, the layer both sides share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/round_trace.hpp"

namespace mcs::analysis {

/// One retained trace, as decoded from a "trace" record.
struct TraceRecord {
  std::string trace_id;
  std::int64_t round{-1};
  int shard{0};
  std::string status;
  std::vector<std::string> retained;  ///< reason labels, wire order
  std::int64_t violations{0};
  std::uint64_t open_ns{0};
  std::uint64_t close_ns{0};
  std::uint64_t latency_ns{0};
  std::int64_t spans_dropped{0};

  struct Span {
    std::string phase;
    std::int32_t slot{-1};
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
  };
  std::vector<Span> spans;
};

/// Per-phase quantiles from the stream's "summary" record.
struct TracePhaseStats {
  std::int64_t count{0};
  double p50_ns{0.0};  ///< 0 when the phase is empty
  double p99_ns{0.0};
  std::int64_t max_ns{0};
};

/// One sketch exemplar from the "exemplars" record.
struct TraceExemplar {
  std::uint64_t bucket_le_ns{0};
  std::uint64_t latency_ns{0};
  std::string trace_id;
  std::int64_t round{-1};
};

/// Everything a trace-report needs, decoded from one stream.
struct TraceStreamSummary {
  int shards{0};
  std::int64_t ring_capacity{0};
  std::int64_t max_spans{0};
  bool auto_threshold{false};  ///< header said slow_threshold_ns "auto"

  std::vector<TraceRecord> traces;  ///< retained traces, stream order

  // "summary" record totals.
  std::int64_t rounds{0};
  std::int64_t completed{0};
  std::int64_t retained{0};
  std::int64_t retained_slow{0};
  std::int64_t retained_econ{0};
  std::int64_t retained_error{0};
  std::int64_t dropped{0};
  std::int64_t retained_evicted{0};
  std::int64_t spans_truncated{0};
  /// Effective slow threshold; negative when the sampler never warmed up.
  std::int64_t slow_threshold_ns{-1};
  /// Keyed by phase name, wire order preserved via obs::TracePhase below.
  std::map<std::string, TracePhaseStats> phases;

  std::uint64_t exemplar_threshold_ns{0};
  std::vector<TraceExemplar> exemplars;
};

/// Longest mcs.trace.v1 line summarize_trace_stream reads, without its
/// '\n'. The writer's widest line, the exemplars record (at most one entry
/// per sketch bucket above the 1 ms floor), is ~77 KB.
inline constexpr std::size_t kMaxTraceLineBytes = std::size_t{128} << 10;

/// Parses one mcs.trace.v1 stream. Throws InvalidArgumentError on
/// malformed JSON, a missing/foreign header, mistyped records, or a line
/// longer than kMaxTraceLineBytes (refused once the cap is crossed);
/// unknown record types are skipped (forward compatibility).
[[nodiscard]] TraceStreamSummary summarize_trace_stream(std::istream& in);

/// The operator view: retention totals, per-phase p50/p99 table, the
/// top_k slowest retained rounds as ASCII span waterfalls, and the
/// exemplar table.
void render_trace_report(std::ostream& os, const TraceStreamSummary& summary,
                         int top_k = 5);

}  // namespace mcs::analysis
