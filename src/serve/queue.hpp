// The shard event queue: a bounded MPSC ring with batched handoff and an
// in-place consumer.
//
// Four properties matter on the serve hot path and all are structural
// here rather than best-effort:
//
//   * No allocator traffic. The ring's slots are allocated at
//     construction (ServeEvent is allocation-free by design: fixed-width
//     fields, Money as int64, no strings), so pushing and consuming move
//     events through memory the queue already owns. The slots are left
//     uninitialized until first written, so a deep ring costs no
//     zero-fill at construction.
//
//   * Batched, all-or-nothing handoff. Producers hand over k events under
//     one lock acquisition, so the per-event cost of the mutex amortizes
//     away. A batch either fits entirely or not at all: under try_push
//     nothing is partially enqueued, and under push_block the producer
//     waits until the whole batch fits. That makes depth reporting exact
//     -- the returned depth-after-push is the real number of events
//     queued and not yet acquired, and high_watermark() is the true
//     maximum of it (the serve.queue_high_watermark gauge is audited
//     against exactly this).
//
//   * In-place consume. The single consumer never copies an event out:
//     acquire() exposes up to `max` queued events where they sit, as at
//     most two contiguous runs (two only when the batch wraps past the end
//     of the slot array), and the next acquire() releases them. Until that
//     release the slots stay the consumer's: a producer's space check
//     counts them as occupied, so it cannot overwrite an event the
//     consumer is still reading.
//
//   * Waiter-gated wakeups. A producer notifies the consumer only when the
//     consumer is parked in acquire(), and a release notifies producers
//     only when one is parked in push_block(); both flags live under the
//     mutex, so a wakeup is never lost. Producers are woken as soon as a
//     release frees slots (no low-water mark): one producer feeding several
//     shards must not stall on one shard while the others drain.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>

#include "serve/event.hpp"

namespace mcs::serve {

/// One queued event plus its wall-clock enqueue stamp (0 when the live and
/// trace planes are off -- the clock is never read then). Batch pushes
/// share one stamp: the batch is handed over at a single instant.
struct QueuedEvent {
  ServeEvent event;
  std::uint64_t enqueue_ns{0};
};

/// The events one EventRing::acquire exposes, read in place: FIFO order is
/// `first` then `second` (`second` is empty unless the batch wraps).
struct RingView {
  std::span<const QueuedEvent> first;
  std::span<const QueuedEvent> second;

  [[nodiscard]] std::size_t size() const {
    return first.size() + second.size();
  }
  [[nodiscard]] std::array<std::span<const QueuedEvent>, 2> runs() const {
    return {first, second};
  }

  /// Calls fn(value, n) once per maximal stretch of n consecutive events
  /// whose key(event) equals value, in FIFO order across both runs. Events
  /// of one push share their enqueue stamp, so keyed on it a batch is a
  /// handful of stretches.
  template <class Key, class Fn>
  void for_each_stretch(Key key, Fn fn) const {
    std::size_t n = 0;
    decltype(key(std::declval<const QueuedEvent&>())) current{};
    for (const std::span<const QueuedEvent> run : runs()) {
      for (const QueuedEvent& queued : run) {
        const auto value = key(queued);
        if (n > 0 && value == current) {
          ++n;
          continue;
        }
        if (n > 0) fn(current, n);
        current = value;
        n = 1;
      }
    }
    if (n > 0) fn(current, n);
  }
};

class EventRing {
 public:
  explicit EventRing(std::size_t capacity);
  ~EventRing();

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Blocks until all `count` events fit, then enqueues them atomically.
  /// Returns the depth after the push (events queued and not yet
  /// acquired), or -1 when the ring was closed (nothing enqueued).
  /// Requires count <= capacity() (a larger batch could never fit and
  /// would deadlock); throws InvalidArgumentError.
  std::int64_t push_block(const ServeEvent* events, std::size_t count,
                          std::uint64_t enqueue_ns);

  /// All-or-nothing fast-fail: -1 when closed or the whole batch does not
  /// fit (nothing enqueued), else the depth after the push.
  std::int64_t try_push(const ServeEvent* events, std::size_t count,
                        std::uint64_t enqueue_ns);

  /// The consumer's one call (single consumer only). Releases the
  /// `released` slots of the previous acquire (pass that view's size(), or
  /// 0 on the first call), then blocks for at least one queued event and
  /// exposes up to `max` of them in `view`, in place. Returns the number
  /// exposed; 0 means closed and fully drained.
  std::size_t acquire(RingView& view, std::size_t max, std::size_t released);

  /// Wakes every waiter; further pushes fail, acquires drain the remainder.
  void close();

  /// Highest depth ever reached (exact; see header comment).
  [[nodiscard]] std::int64_t high_watermark() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  [[nodiscard]] bool has_space(std::size_t count) const {
    return acquired_ + size_ + count <= capacity_;
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
  std::size_t head_{0};      ///< oldest slot the consumer holds or will get
  std::size_t tail_{0};      ///< next slot a push writes (wrapping index)
  std::size_t acquired_{0};  ///< slots exposed by the last acquire
  std::size_t size_{0};      ///< queued events not yet acquired
  std::int64_t high_watermark_{0};
  int producers_waiting_{0};     ///< producers parked in push_block
  bool consumer_waiting_{false};  ///< the consumer is parked in acquire
  bool closed_{false};
};

}  // namespace mcs::serve
