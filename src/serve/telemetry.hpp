// Live operational telemetry of the serving engine -- the wall-clock plane.
//
// The engine's deterministic plane (ServeStats + the merged
// MetricsRegistry counters) is bit-identical across shard counts and runs,
// and bench-diff gates it exactly. This file is the other plane: wall-clock
// latency and throughput observed *while serving*, which is inherently
// nondeterministic and therefore strictly quarantined -- nothing recorded
// here ever touches a MetricsRegistry counter or histogram, and turning it
// on must not change a single deterministic counter (pinned by
// serve_telemetry_test).
//
// Wiring: the plane reads the engine's per-shard system lanes
// (serve/system_lane.hpp: events processed, rounds closed, the queue-wait
// and round-latency sketches), which the engine feeds and attach() shares.
// Its own hooks are the producers' handoffs (on_submit/on_reject). A
// StatsPublisher thread periodically calls take_snapshot(), which rolls
// one window per shard (obs::RollingWindowAggregator), classifies shard
// and engine health (obs::classify_health), and emits one JSONL line of
// schema "mcs.serve_stats.v1" (write_serve_snapshot) and/or a Prometheus text
// rendering (render_live_prometheus, via the existing exporter). Each
// shard's window ring keeps exactly the health dwell's worth of windows,
// the only ones classify_health reads. Window edges and uptime come from
// an injectable obs::MonotonicClock, so tests drive the whole plane with
// a FakeClock and golden the snapshots byte for byte.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "obs/rolling_window.hpp"
#include "obs/wallclock.hpp"
#include "serve/system_lane.hpp"

namespace mcs::serve {

struct LiveTelemetryConfig {
  /// Time source of window edges and uptime; nullptr = the process
  /// steady clock.
  obs::MonotonicClock* clock = nullptr;
};

/// One shard's share of a snapshot window.
struct ShardWindow {
  int shard{0};
  obs::HealthState state{obs::HealthState::kHealthy};
  obs::WindowStats window;
};

/// One published snapshot: the per-shard windows plus their engine-wide
/// aggregate. `window` is a monotone index; all times are uptime-relative
/// (nanoseconds since attach), so fake-clock runs are reproducible.
struct ServeSnapshot {
  std::int64_t window{0};
  std::uint64_t at_ns{0};  ///< window end, relative to attach
  obs::HealthState state{obs::HealthState::kHealthy};  ///< worst shard
  obs::WindowStats total;  ///< sums/merges across shards
  std::vector<ShardWindow> shards;
};

/// Whole-run totals for the end-of-run summary line.
struct LiveSummary {
  std::uint64_t uptime_ns{0};
  std::int64_t submitted{0};
  std::int64_t processed{0};
  std::int64_t rejected{0};
  std::int64_t rounds_closed{0};
  std::int64_t queue_high_watermark{0};
  obs::LatencySketchSnapshot queue_wait;     ///< cumulative, all shards
  obs::LatencySketchSnapshot round_latency;  ///< cumulative, all shards

  [[nodiscard]] double events_per_sec() const {
    return uptime_ns == 0 ? 0.0
                          : static_cast<double>(processed) /
                                (static_cast<double>(uptime_ns) / 1e9);
  }
};

class LiveTelemetry {
 public:
  explicit LiveTelemetry(LiveTelemetryConfig config = {});
  LiveTelemetry(const LiveTelemetry&) = delete;
  LiveTelemetry& operator=(const LiveTelemetry&) = delete;

  /// Binds to one engine run: reads `lanes` (one per shard), records the
  /// queue capacity (for health classification), and restarts uptime at
  /// now. Called by the engine constructor; discards any previous run's
  /// data.
  void attach(std::shared_ptr<const SystemLanes> lanes,
              std::int64_t queue_capacity);

  // Producer hooks, wait-free (relaxed atomics only), from any producer,
  // once per handoff batch: `count` events at the batch's depth-after (the
  // exact instantaneous depth -- batch pushes are all-or-nothing).
  void on_submit(int shard, std::int64_t count, std::int64_t depth_after);
  void on_reject(int shard, std::int64_t count);

  /// Rolls one window per shard and aggregates. Serialized internally, so
  /// the publisher thread and a final end-of-run call cannot interleave.
  [[nodiscard]] ServeSnapshot take_snapshot();

  /// Whole-run cumulative totals (merged across shards).
  [[nodiscard]] LiveSummary summary();

 private:
  /// One shard's producer side: any number of producers, so
  /// read-modify-writes; the snapshot thread only reads (and resets the
  /// window watermark). Queue depth is derived as submitted - processed
  /// (the lane's) rather than stored by both sides.
  struct ShardSlot {
    std::atomic<std::int64_t> submitted{0};
    std::atomic<std::int64_t> rejected{0};
    std::atomic<std::int64_t> window_watermark{0};  ///< reset per snapshot
    std::atomic<std::int64_t> high_watermark{0};
    char line_gap[64]{};  ///< keeps the next shard's slot off this line
  };

  /// Uptime timestamp (ns since attach) from the injected clock.
  [[nodiscard]] std::uint64_t now_ns();
  /// One shard's cumulative totals (its window watermark left unread).
  [[nodiscard]] obs::LiveCumulative sample_shard(std::size_t shard,
                                                 std::uint64_t at_ns) const;

  obs::MonotonicClock* clock_;
  std::uint64_t start_ns_{0};
  std::int64_t queue_capacity_{0};
  std::shared_ptr<const SystemLanes> lanes_;
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::mutex snapshot_mutex_;  ///< guards aggregators_ + next_window_
  std::vector<obs::RollingWindowAggregator> aggregators_;
  std::int64_t next_window_{0};
};

/// One "mcs.serve_stats.v1" JSONL line (newline-terminated). Every line is
/// self-describing (carries the schema field); quantiles of an empty
/// window render as null.
void write_serve_snapshot(std::ostream& os, const ServeSnapshot& snapshot);

/// Prometheus text rendering of one snapshot via obs::write_prometheus
/// (gauges named serve.live.*; health states as their severity rank).
void render_live_prometheus(std::ostream& os, const ServeSnapshot& snapshot);

class EconTelemetry;  // serve/econ_telemetry.hpp

/// Background snapshot thread: every `period` it takes a snapshot and
/// appends one JSONL line to `os`. stop() (and the destructor) publishes
/// one final tail window so short runs still emit at least one line.
/// When an EconTelemetry and its stream are supplied, each tick publishes
/// the econ plane too ("mcs.serve_econ.v1" lines, same cadence).
class StatsPublisher {
 public:
  StatsPublisher(LiveTelemetry& live, std::ostream& os,
                 std::chrono::milliseconds period,
                 EconTelemetry* econ = nullptr,
                 std::ostream* econ_os = nullptr);
  ~StatsPublisher();
  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

  /// Idempotent; joins the thread and writes the final snapshot.
  void stop();
  [[nodiscard]] std::int64_t snapshots_written() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void publish();

  LiveTelemetry& live_;
  std::ostream& os_;
  std::chrono::milliseconds period_;
  EconTelemetry* econ_{nullptr};     ///< optional second plane (non-owning)
  std::ostream* econ_os_{nullptr};   ///< destination for econ snapshots
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_{false};
  bool stopped_{false};
  std::atomic<std::int64_t> written_{0};
  std::thread thread_;
};

}  // namespace mcs::serve
