// One shard's system lane: the wall-clock state of serving that the engine
// records once and both timed planes read. The shard's worker records each
// batch it acquires (events processed, each event's queue wait) and each
// completed round (rounds closed, close pickup minus open pickup). The live
// plane's snapshots and the trace plane's queue_wait and round_close phases
// and auto slow threshold read the same sketches, so each wait and latency
// is recorded once whichever planes are attached. The engine shares the
// lanes with each plane's attach, so a plane's summary outlives the engine.
// One writer per lane (plain load + store); readers only load and snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "serve/queue.hpp"

namespace mcs::serve {

struct SystemLane {
  std::atomic<std::int64_t> processed{0};
  std::atomic<std::int64_t> rounds_closed{0};
  obs::LatencySketch queue_wait;     ///< enqueue -> batch pickup
  obs::LatencySketch round_latency;  ///< open pickup -> close pickup
  char line_gap[64]{};  ///< keeps the next shard's lane off this line

  /// One batch picked up at `pickup_ns`: one wait record (pickup minus
  /// enqueue stamp, 0 if later) per stretch of equal enqueue stamps.
  void record_batch(const RingView& batch, std::uint64_t pickup_ns) {
    processed.store(processed.load(std::memory_order_relaxed) +
                        static_cast<std::int64_t>(batch.size()),
                    std::memory_order_relaxed);
    for_each_stretch(
        batch.stamps, std::identity{},
        [&](std::uint64_t enqueue_ns, std::size_t n) {
          queue_wait.record_ns(
              pickup_ns >= enqueue_ns ? pickup_ns - enqueue_ns : 0, n);
        });
  }

  void record_round(std::uint64_t latency_ns) {
    rounds_closed.store(rounds_closed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    round_latency.record_ns(latency_ns);
  }
};

using SystemLanes = std::vector<SystemLane>;  ///< one per shard

}  // namespace mcs::serve
