// Exporters for the telemetry registry and trace: JSON (machine-readable
// run report, schema "mcs.telemetry.v1"), CSV (one row per metric sample
// point, for spreadsheets), and Prometheus text exposition format (for
// scrape-style tooling). All exporters render a deterministic order
// (snapshot maps are name-sorted), so golden tests and diff-based perf
// regression checks are stable.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::obs {

/// Writes the registry (and optionally a trace) as one JSON object:
///   {"schema":"mcs.telemetry.v1","meta":{...},"counters":{...},
///    "gauges":{...},"histograms":{...},"trace":[...]}
/// Histogram buckets use Prometheus le semantics; the overflow bucket's
/// upper edge is the string "+Inf". `meta` lands as string fields under
/// "meta" (e.g. tool name, scenario path).
void write_metrics_json(
    std::ostream& os, const MetricsRegistry& registry,
    const TraceCollector* trace = nullptr,
    const std::map<std::string, std::string>& meta = {});

/// CSV with header kind,name,field,value -- counters one row each,
/// gauges one row each, histograms one row per (count|sum|min|max) plus
/// one per bucket ("le=<edge>").
void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry);

/// Sanitizes a dotted metric name into a legal Prometheus identifier:
/// prefixes "mcs_" and maps every byte outside [a-zA-Z0-9_:] to '_'
/// (exposition-format grammar [a-zA-Z_:][a-zA-Z0-9_:]*). Total: arbitrary
/// input -- including user-influenced mechanism or shard strings -- always
/// yields a scrapable name.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// Escapes a string for use inside a quoted Prometheus label value
/// (backslash, double-quote, and newline per the text-format spec).
[[nodiscard]] std::string prometheus_label_value(std::string_view value);

/// Prometheus text exposition format. Metric names are sanitized via
/// prometheus_name(); histograms expand to _bucket/_sum/_count series.
void write_prometheus(std::ostream& os, const MetricsRegistry& registry);

/// Human-readable indented span tree:
///   run                          12.3 ms
///     allocation                  4.5 ms
///     payments                    7.8 ms
void render_trace_text(std::ostream& os, const TraceCollector& trace);

/// One complete ("X") event of a Chrome trace, with explicit pid/tid lane
/// placement and optional flow linkage. A non-negative flow_out emits a
/// flow-start ("s") record at the span's end; a non-negative flow_in emits
/// a flow-finish ("f", bp "e") record at the span's start -- Perfetto
/// draws an arrow between the two spans carrying the same flow id (we use
/// the round id, so a round's producer-side queue span links to its
/// shard-worker timeline). A non-negative depth puts the span-tree
/// position (depth, parent index) in the event's "args".
struct ChromeEvent {
  std::string name;
  std::int64_t pid{1};
  std::int64_t tid{1};
  std::int64_t ts_us{0};
  std::int64_t dur_us{0};
  std::int64_t flow_out{-1};
  std::int64_t flow_in{-1};
  std::int64_t depth{-1};
  std::int64_t parent{-1};
};

/// Display name of one pid/tid lane (rendered as a thread_name "M"
/// metadata record, so shards get labelled tracks).
struct ChromeLane {
  std::int64_t pid{1};
  std::int64_t tid{1};
  std::string name;
};

/// Chrome Trace Event Format (the JSON-object flavour with a "traceEvents"
/// array), loadable directly in Perfetto or chrome://tracing: a
/// process_name record, thread_name metadata for each lane, then the
/// events in the order given (callers sort for determinism), with flow
/// records interleaved after their spans. `meta` lands under "otherData".
void write_chrome_trace_events(
    std::ostream& os, const std::vector<ChromeLane>& lanes,
    const std::vector<ChromeEvent>& events,
    const std::map<std::string, std::string>& meta = {});

/// A span tree as a single-lane Chrome trace: one event per span, in the
/// collector's preorder, with ts/dur in microseconds relative to the
/// collector's epoch; depth and parent index travel in "args" so the
/// exported tree is loss-free with respect to render_trace_text.
void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans,
                        const std::map<std::string, std::string>& meta = {});

}  // namespace mcs::obs
