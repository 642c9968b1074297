#include "obs/rolling_window.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mcs::obs {

RollingWindowAggregator::RollingWindowAggregator(std::uint64_t start_ns,
                                                 std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  previous_.at_ns = start_ns;
}

const WindowStats& RollingWindowAggregator::roll(const LiveCumulative& now) {
  MCS_EXPECTS(now.at_ns >= previous_.at_ns,
              "rolling window sampled with a clock that went backwards");
  WindowStats window;
  window.index = next_index_++;
  window.begin_ns = previous_.at_ns;
  window.end_ns = now.at_ns;
  window.submitted = now.submitted - previous_.submitted;
  window.processed = now.processed - previous_.processed;
  window.rejected = now.rejected - previous_.rejected;
  window.rounds_closed = now.rounds_closed - previous_.rounds_closed;
  window.queue_depth = now.queue_depth;
  window.queue_watermark = now.window_watermark;
  window.queue_wait = now.queue_wait.delta_since(previous_.queue_wait);
  window.round_latency =
      now.round_latency.delta_since(previous_.round_latency);
  const double seconds = window.seconds();
  if (seconds > 0.0) {
    window.events_per_sec = static_cast<double>(window.processed) / seconds;
    window.rounds_per_sec =
        static_cast<double>(window.rounds_closed) / seconds;
  }
  const std::int64_t offered = window.submitted + window.rejected;
  if (offered > 0) {
    window.reject_rate =
        static_cast<double>(window.rejected) / static_cast<double>(offered);
  }
  previous_ = now;
  windows_.push_back(std::move(window));
  while (windows_.size() > capacity_) windows_.pop_front();
  return windows_.back();
}

// ----------------------------------------------------------------- health

std::string_view to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kSaturated:
      return "saturated";
    case HealthState::kShedding:
      return "shedding";
    case HealthState::kStalled:
      return "stalled";
    case HealthState::kDegradedEconomics:
      return "degraded-economics";
  }
  return "unknown";
}

HealthState worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

HealthState classify_health(const std::deque<WindowStats>& windows,
                            std::int64_t queue_capacity) {
  if (windows.empty()) return HealthState::kHealthy;
  constexpr std::size_t dwell = kHealthDwellWindows;

  if (windows.size() >= dwell) {
    bool stalled = true;
    for (std::size_t i = windows.size() - dwell; i < windows.size(); ++i) {
      const WindowStats& w = windows[i];
      if (w.queue_depth <= 0 || w.processed > 0) {
        stalled = false;
        break;
      }
    }
    if (stalled) return HealthState::kStalled;
  }

  if (windows.back().reject_rate > kShedRejectRate) {
    return HealthState::kShedding;
  }

  if (windows.size() >= dwell && queue_capacity > 0) {
    const double threshold = kSaturatedQueueFraction *
                             static_cast<double>(queue_capacity);
    bool saturated = true;
    for (std::size_t i = windows.size() - dwell; i < windows.size(); ++i) {
      if (static_cast<double>(windows[i].queue_watermark) < threshold) {
        saturated = false;
        break;
      }
    }
    if (saturated) return HealthState::kSaturated;
  }

  return HealthState::kHealthy;
}

}  // namespace mcs::obs
