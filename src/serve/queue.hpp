// The shard event queue: a bounded MPSC ring with batched handoff.
//
// Two properties matter on the serve hot path and both are structural
// here rather than best-effort:
//
//   * No allocator traffic. The ring's slots are allocated at
//     construction (ServeEvent is allocation-free by design: fixed-width
//     fields, Money as int64, no strings), so pushing and popping move
//     events through memory the queue already owns. The old deque-backed
//     queue hit the global allocator on every push block -- on a
//     multi-producer hot path that is both latency and contention. The
//     slots are left uninitialized until first written, so a deep ring
//     costs no zero-fill at construction.
//
//   * Batched, all-or-nothing handoff. Producers hand over k events under
//     one lock acquisition (and consumers take up to k under one), so the
//     per-event cost of the mutex amortizes away. A batch either fits
//     entirely or not at all: under try_push nothing is partially
//     enqueued, and under push_block the producer waits until the whole
//     batch fits. That makes depth reporting exact -- the returned
//     depth-after-push is the real instantaneous occupancy the batch
//     produced, and high_watermark() is the true maximum occupancy ever
//     reached (the serve.queue_high_watermark gauge is audited against
//     exactly this).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/event.hpp"

namespace mcs::serve {

/// One queued event plus its wall-clock enqueue stamp (0 when the live and
/// trace planes are off -- the clock is never read then). Batch pushes
/// share one stamp: the batch is handed over at a single instant.
struct QueuedEvent {
  ServeEvent event;
  std::uint64_t enqueue_ns{0};
};

/// One popped event with the queue state the consumer observed:
/// depth_left counts the items still pending behind this one (ring
/// occupancy after the batch pop, plus the batch's own not-yet-consumed
/// tail), preserving the exact per-event depth the unbatched pop reported.
struct PoppedEvent {
  ServeEvent event;
  std::uint64_t enqueue_ns{0};
  std::int64_t depth_left{0};
};

class EventRing {
 public:
  explicit EventRing(std::size_t capacity);
  ~EventRing();

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Blocks until all `count` events fit, then enqueues them atomically.
  /// Returns the occupancy after the push, or -1 when the ring was closed
  /// (nothing enqueued). Requires count <= capacity() (a larger batch
  /// could never fit and would deadlock); throws InvalidArgumentError.
  std::int64_t push_block(const ServeEvent* events, std::size_t count,
                          std::uint64_t enqueue_ns);

  /// All-or-nothing fast-fail: -1 when closed or the whole batch does not
  /// fit (nothing enqueued), else the occupancy after the push.
  std::int64_t try_push(const ServeEvent* events, std::size_t count,
                        std::uint64_t enqueue_ns);

  /// Blocks for at least one event, then moves up to `max` into `out`
  /// (appended; caller clears). Returns the number taken; 0 means closed
  /// and fully drained.
  std::size_t pop_batch(std::vector<PoppedEvent>& out, std::size_t max);

  /// Wakes every waiter; further pushes fail, pops drain the remainder.
  void close();

  /// Highest occupancy ever reached (exact; see header comment).
  [[nodiscard]] std::int64_t high_watermark() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  [[nodiscard]] bool has_space(std::size_t count) const {
    return size_ + count <= capacity_;
  }
  void enqueue_locked(const ServeEvent* events, std::size_t count,
                      std::uint64_t enqueue_ns);

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::size_t capacity_;
  /// capacity_ slots from std::allocator: storage only, each slot is
  /// constructed when enqueue_locked first writes it.
  QueuedEvent* slots_{nullptr};
  std::size_t head_{0};  ///< index of the oldest queued event
  std::size_t size_{0};
  std::int64_t high_watermark_{0};
  bool closed_{false};
};

}  // namespace mcs::serve
