// Per-round causal tracing of the serving engine -- the third plane.
//
// The deterministic plane says how much work happened, the live plane
// says how slow it was; this plane says *where* a slow round spent its
// time. Every round flowing through the engine gets a trace id
// (obs::trace_id_of, a pure function of the round id) and a bounded span
// timeline: client-side ingest lag (stamped by the paced loadgen), queue
// wait, one span per slot_tick (allocation plus the Algorithm-2 settlement
// of that slot's departing winners), round_close (the `payment` phase: the
// round's checks, plus the dense outcome build when the engine retains
// outcomes or audits them), the econ audit, and a terminal round_close
// marker.
//
// The plane owns no clock: every hook takes its timestamps from the
// engine, which stamps each event once on its one clock; its queue_wait
// and round_close phases read the engine's per-shard system lanes
// (serve/system_lane.hpp). Quarantine discipline is identical to
// LiveTelemetry: the engine's hooks record into per-shard state owned by
// that shard's worker (plain writes, no locks) plus relaxed-atomic
// summary counters and latency sketches -- never a MetricsRegistry
// counter. Trace-on vs trace-off leaves the deterministic merge
// bit-identical (pinned by serve_trace_test, same discipline as
// serve_telemetry_test).
//
// Retention is tail-based, decided at round_close per round:
//   * slow      -- latency >= the configured threshold, or, in auto mode
//                  (slow_threshold_ns == 0), >= the shard's rolling p99
//                  (refreshed from its round-latency sketch, with a
//                  warm-up floor so early rounds don't all qualify);
//   * econ      -- the round tripped at least one sentinel violation
//                  (EconTelemetry::observe_round reports the count);
//   * error     -- the round was corrupted by shedding, its events were
//                  orphaned, or it was still open at drain.
// Everything else folds into per-phase summary sketches and becomes
// eviction fodder in the shard's fixed-capacity TraceRing (retained
// traces are pinned and survive wraparound).
//
// Exports, all post-drain: versioned "mcs.trace.v1" JSONL
// (write_trace_stream: header, one record per retained trace, a summary
// record with per-phase quantiles, and a sketch-exemplar record), and
// multi-lane Chrome Trace Event Format (write_trace_chrome: a producer
// lane plus one lane per shard, flow arrows linking a round's queue span
// to its worker timeline).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "obs/round_trace.hpp"
#include "serve/system_lane.hpp"

namespace mcs::serve {

/// Span cap per trace (appends beyond it are counted, not stored) and the
/// latency from which sketch buckets remember their worst round's trace.
inline constexpr std::size_t kTraceMaxSpans = 96;
inline constexpr std::uint64_t kTraceExemplarThresholdNs = 1'000'000;

struct TracePlaneConfig {
  /// Retained-trace capacity per shard (pinned-priority ring), at most
  /// kMaxRingCapacity.
  std::size_t ring_capacity = 256;
  /// Upper bound of ring_capacity: 2^14 traces per shard, whose slots are
  /// reserved up front (~2 MiB) and, retained with kTraceMaxSpans spans
  /// each, hold ~40 MiB.
  static constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 14;
  /// Retain rounds with latency >= this. 0 = auto: track each shard's
  /// rolling p99 round latency and use that as the threshold.
  std::uint64_t slow_threshold_ns = 0;

  /// Throws InvalidArgumentError when out of domain.
  void validate() const;
};

/// Aggregated view of one phase across all shards (cumulative sketch).
struct TracePhaseSummary {
  obs::TracePhase phase{obs::TracePhase::kQueueWait};
  obs::LatencySketchSnapshot sketch;
};

/// Whole-run totals for the end-of-run summary line and the JSONL
/// summary record.
struct TraceSummary {
  std::int64_t rounds_traced{0};     ///< round_open seen (trace started)
  std::int64_t rounds_completed{0};  ///< closed (the system lanes' count)
  std::int64_t retained{0};          ///< pinned into the rings
  std::int64_t retained_slow{0};
  std::int64_t retained_econ{0};
  std::int64_t retained_error{0};
  std::int64_t dropped{0};           ///< folded into summaries only
  std::int64_t retained_evicted{0};  ///< pinned traces lost to wraparound
  std::int64_t spans_truncated{0};   ///< spans beyond the per-trace cap
  /// Effective slow threshold (max over shards in auto mode; ~0 when the
  /// auto sampler has not warmed up yet).
  std::uint64_t slow_threshold_ns{0};
  std::array<TracePhaseSummary, obs::kTracePhaseCount> phases;
};

class TracePlane {
 public:
  explicit TracePlane(TracePlaneConfig config = {});
  TracePlane(const TracePlane&) = delete;
  TracePlane& operator=(const TracePlane&) = delete;

  [[nodiscard]] const TracePlaneConfig& config() const { return config_; }

  /// Binds to one engine run's system lanes, one per shard. Called by the
  /// engine constructor; discards any previous run's traces.
  void attach(std::shared_ptr<const SystemLanes> system);

  [[nodiscard]] int shards() const { return static_cast<int>(lanes_.size()); }

  // Engine hooks, called only by the shard's worker. The plane owns no
  // round table: the engine's holds each trace on_round_open returns and
  // hands it to one sealing hook. Cross-thread visibility is limited to
  // the relaxed-atomic counters and sketches.

  /// One batch the worker acquired from its ring: folds every event's
  /// client-side ingest lag into the shard's ingest sketch, one record per
  /// stretch of equal lags.
  void on_batch(int shard, const RingView& batch);
  /// round_open processing began: returns the round's trace with its
  /// ingest span ([enqueue - lag, enqueue], producer side) and queue span
  /// ([enqueue, begin]).
  [[nodiscard]] obs::RoundTrace on_round_open(
      int shard, std::int64_t round, std::uint64_t enqueue_ns,
      std::uint64_t begin_ns, std::uint64_t client_lag_ns);
  /// One slot_tick of an open round: allocation plus the settlement of the
  /// winners departing in that slot.
  void on_slot_tick(int shard, obs::RoundTrace& trace, std::int32_t slot,
                    std::uint64_t begin_ns, std::uint64_t end_ns);
  /// round_close: seals the trace (payment span [close_begin, settled]
  /// timing round_close and any dense outcome build,
  /// audit span [settled, done] when the econ plane ran, terminal
  /// round_close marker at done) and runs the tail sampler, whose auto
  /// threshold reads the system lane: record the round's latency first.
  /// `econ_violations` is the sentinel's verdict for this round.
  void on_round_complete(int shard, obs::RoundTrace trace,
                         std::uint64_t close_begin_ns,
                         std::uint64_t settled_ns, std::uint64_t done_ns,
                         std::int64_t econ_violations);
  /// Seals a round that ended unclosed, always retained: kCorrupted
  /// (shedding punched a hole in it; its orphaned events add no second
  /// trace) or kAbandoned (still open at drain).
  void on_round_failed(int shard, obs::RoundTrace trace,
                       obs::TraceStatus status, std::uint64_t at_ns);
  /// Event for a round whose open was shed: at the round's first such
  /// event, seals a zero-latency orphaned stub trace, always retained.
  void on_orphaned_event(int shard, std::int64_t round, std::uint64_t at_ns);

  /// Whole-run totals + merged per-phase sketches. Safe any time
  /// (counters and sketches are atomic), but per-phase counts are only
  /// settled after drain.
  [[nodiscard]] TraceSummary summary() const;

  /// Retained traces across all shards, sorted by round id. Reads the
  /// worker-owned rings: call only after the engine drained.
  [[nodiscard]] std::vector<obs::RoundTrace> retained() const;

  [[nodiscard]] const obs::SketchExemplars& exemplars() const {
    return exemplars_;
  }

 private:
  /// One shard's lane. Timeline state (orphans, ring) is worker-owned;
  /// the atomics and sketches below the fence are the cross-thread
  /// summary surface.
  struct Lane {
    explicit Lane(const TracePlaneConfig& config)
        : ring(config.ring_capacity),
          effective_threshold_ns(config.slow_threshold_ns != 0
                                     ? config.slow_threshold_ns
                                     : ~0ULL) {}

    // -- worker-owned ------------------------------------------------
    /// Rounds whose orphaned events are already traced: a stub was
    /// sealed, or the round was sealed as corrupted.
    std::unordered_set<std::int64_t> orphan_rounds;
    obs::TraceRing ring;

    // -- shared (relaxed atomics / concurrent sketches) --------------
    std::atomic<std::int64_t> rounds_traced{0};
    std::atomic<std::int64_t> retained{0};
    std::atomic<std::int64_t> retained_slow{0};
    std::atomic<std::int64_t> retained_econ{0};
    std::atomic<std::int64_t> retained_error{0};
    std::atomic<std::int64_t> dropped{0};
    std::atomic<std::int64_t> retained_evicted{0};
    std::atomic<std::int64_t> spans_truncated{0};
    /// Fixed, or in auto mode refreshed from the system lane.
    std::atomic<std::uint64_t> effective_threshold_ns;
    obs::LatencySketch ingest, slot_tick, payment, audit;  ///< own phases
  };

  /// Tail sampler + ring push of one sealed trace (worker thread).
  void seal(Lane& lane, obs::RoundTrace trace, unsigned extra_reasons);

  TracePlaneConfig config_;
  std::shared_ptr<const SystemLanes> system_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  obs::SketchExemplars exemplars_;
};

/// The full "mcs.trace.v1" JSONL stream: header line, one "trace" record
/// per retained trace (sorted by round id), one "summary" record, one
/// "exemplars" record. Deterministic for given hook stamps.
void write_trace_stream(std::ostream& os, const TracePlane& plane);

/// Multi-lane Chrome Trace Event Format of the retained traces: lane
/// "producer" carries ingest + queue spans, one lane per shard carries
/// the worker timeline, flow arrows (id = round) link the two.
void write_trace_chrome(std::ostream& os, const TracePlane& plane);

}  // namespace mcs::serve
