// Rolling-window aggregation and overload health for the live timing plane.
//
// The engine exposes cumulative live stats (monotone counters plus
// cumulative latency sketches); a RollingWindowAggregator turns successive
// samples of those cumulatives into per-window deltas -- events/sec,
// round-closes/sec, reject rate, latency quantiles, queue-depth
// watermarks -- and keeps a fixed-size ring of recent windows. The window
// edges come from whatever MonotonicClock the caller samples with, so a
// FakeClock makes every derived rate and quantile byte-reproducible.
//
// classify_health reads the recent windows and names the operational
// state: healthy, saturated (queue watermark dwelling near capacity),
// shedding (admission control rejecting traffic), or stalled (backlogged
// queue with no forward progress). It is a pure function of the window
// ring so tests enumerate every state directly.
//
// Everything here is wall-clock territory: none of it may feed the
// deterministic counter plane that bench-diff gates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>

#include "obs/latency_sketch.hpp"

namespace mcs::obs {

/// Cumulative live stats of one event-processing lane (e.g. one serve
/// shard) at a sample instant. All counters are monotone except
/// queue_depth (instantaneous) and window_watermark (highest depth since
/// the previous sample; the sampler resets it on read).
struct LiveCumulative {
  std::uint64_t at_ns{0};
  std::int64_t submitted{0};      ///< events accepted into the queue
  std::int64_t processed{0};      ///< events consumed by the worker
  std::int64_t rejected{0};       ///< events shed by admission control
  std::int64_t rounds_closed{0};
  std::int64_t queue_depth{0};
  std::int64_t window_watermark{0};
  std::int64_t queue_high_watermark{0};  ///< cumulative max depth
  LatencySketchSnapshot queue_wait;      ///< cumulative submit->pop wait
  LatencySketchSnapshot round_latency;   ///< cumulative open->close wall
};

/// One closed window: deltas between two cumulative samples plus the
/// rates derived from the window span.
struct WindowStats {
  std::int64_t index{0};  ///< monotone window number, starts at 0
  std::uint64_t begin_ns{0};
  std::uint64_t end_ns{0};
  std::int64_t submitted{0};
  std::int64_t processed{0};
  std::int64_t rejected{0};
  std::int64_t rounds_closed{0};
  double events_per_sec{0.0};  ///< processed / window seconds
  double rounds_per_sec{0.0};
  /// rejected / (submitted + rejected); 0 when nothing was offered.
  double reject_rate{0.0};
  std::int64_t queue_depth{0};      ///< at the window's end
  std::int64_t queue_watermark{0};  ///< highest depth within the window
  LatencySketchSnapshot queue_wait;     ///< samples within the window
  LatencySketchSnapshot round_latency;  ///< samples within the window

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
};

/// Turns successive LiveCumulative samples into WindowStats and retains
/// the most recent `capacity` windows. Single-threaded by design: only the
/// stats publisher rolls it.
class RollingWindowAggregator {
 public:
  explicit RollingWindowAggregator(std::uint64_t start_ns = 0,
                                   std::size_t capacity = 64);

  /// Closes the window [previous sample, now] and returns it. `now.at_ns`
  /// must not precede the previous sample.
  const WindowStats& roll(const LiveCumulative& now);

  [[nodiscard]] const std::deque<WindowStats>& windows() const {
    return windows_;
  }
  /// Index the next roll() will assign (== windows rolled so far).
  [[nodiscard]] std::int64_t next_index() const { return next_index_; }

 private:
  std::size_t capacity_;
  std::deque<WindowStats> windows_;
  LiveCumulative previous_;
  std::int64_t next_index_{0};
};

// ----------------------------------------------------------------- health

enum class HealthState {
  kHealthy,
  kSaturated,  ///< queue watermark dwelling near capacity
  kShedding,   ///< admission control rejecting traffic
  kStalled,    ///< backlogged queue, no forward progress
  /// The econ sentinel observed an invariant violation (payment below
  /// claimed cost, payment != critical value, ...). Worst state: a
  /// mispriced mechanism is a correctness bug, not a load condition, so
  /// it outranks every systems state and is sticky for the run.
  kDegradedEconomics,
};

[[nodiscard]] std::string_view to_string(HealthState state);

/// Severity order for aggregating shard states (degraded economics worst,
/// then stalled).
[[nodiscard]] HealthState worse(HealthState a, HealthState b);

/// A window whose reject_rate exceeds this is shedding.
inline constexpr double kShedRejectRate = 0.01;
/// A window whose watermark reaches this fraction of queue capacity counts
/// toward saturation dwell.
inline constexpr double kSaturatedQueueFraction = 0.5;
/// Consecutive qualifying windows before saturated/stalled is declared
/// (one noisy window is not an incident).
inline constexpr std::size_t kHealthDwellWindows = 2;

/// Classifies the newest windows of one lane. Stalled takes precedence
/// over shedding over saturated; with fewer than kHealthDwellWindows
/// windows only shedding can be declared.
[[nodiscard]] HealthState classify_health(
    const std::deque<WindowStats>& windows, std::int64_t queue_capacity);

}  // namespace mcs::obs
