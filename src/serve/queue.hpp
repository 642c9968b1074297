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
//   * Bulk copy into two arrays. A slot is an event in one array and its
//     enqueue stamp in a parallel one, so a push is one memcpy of the
//     caller's events (two at the wrap) plus a fill of the batch's one
//     stamp, not a per-event construction of an (event, stamp) pair.
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
//     acquire() exposes up to `max` queued events and their stamps where
//     they sit, as at most two contiguous runs of each array (two only
//     when the batch wraps past the end of the slots), and the next
//     acquire() releases them. Until that release the slots stay the
//     consumer's: a producer's space check counts them as occupied, so it
//     cannot overwrite an event the consumer is still reading.
//
//   * Waiter-gated wakeups. A producer notifies the consumer only when the
//     consumer is parked in acquire(), and a release notifies producers
//     only when one is parked in push_block(); both flags live under the
//     mutex, so a wakeup is never lost. Producers are woken as soon as a
//     release frees slots (no low-water mark): one producer feeding several
//     shards must not stall on one shard while the others drain.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>

#include "serve/event.hpp"

namespace mcs::serve {

/// The events one EventRing::acquire exposes, read in place, next to their
/// wall-clock enqueue stamps (0 when the live and trace planes are off --
/// the clock is never read then; the events of one push share a stamp).
/// The two arrays are parallel: run k of `stamps` stamps run k of
/// `events`, and FIFO order is run 0 then run 1 (run 1 is empty unless the
/// batch wraps).
struct RingView {
  std::array<std::span<const ServeEvent>, 2> events;
  std::array<std::span<const std::uint64_t>, 2> stamps;

  [[nodiscard]] std::size_t size() const {
    return events[0].size() + events[1].size();
  }
};

/// Calls fn(value, n) once per maximal stretch of n consecutive elements
/// whose key(element) equals value, in order across both runs. Keyed on a
/// RingView's stamps, a batch is a handful of stretches.
template <class T, class Key, class Fn>
void for_each_stretch(const std::array<std::span<const T>, 2>& runs, Key key,
                      Fn fn) {
  std::size_t n = 0;
  std::decay_t<decltype(key(std::declval<const T&>()))> current{};
  for (const std::span<const T> run : runs) {
    for (const T& element : run) {
      const auto value = key(element);
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

class EventRing {
 public:
  /// Storage of one slot: the event and its enqueue stamp.
  static constexpr std::size_t kSlotBytes =
      sizeof(ServeEvent) + sizeof(std::uint64_t);

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
  /// Queued plus acquired events, read without the lock (a hint).
  [[nodiscard]] std::size_t occupied() const {
    return occupied_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  [[nodiscard]] bool has_space(std::size_t count) const {
    return acquired_ + size_ + count <= capacity_;
  }
  void enqueue_locked(const ServeEvent* events, std::size_t count,
                      std::uint64_t enqueue_ns);
  /// Slot i as the first element of a run of n, in both arrays.
  void expose(RingView& view, std::size_t run, std::size_t i,
              std::size_t n) const {
    view.events[run] = {events_ + i, n};
    view.stamps[run] = {stamps_ + i, n};
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::size_t capacity_;
  /// capacity_ slots in two parallel arrays from std::allocator: storage
  /// only, each slot is written when enqueue_locked first copies into it.
  ServeEvent* events_{nullptr};
  std::uint64_t* stamps_{nullptr};
  std::size_t head_{0};      ///< oldest slot the consumer holds or will get
  std::size_t tail_{0};      ///< next slot a push writes (wrapping index)
  std::size_t acquired_{0};  ///< slots exposed by the last acquire
  std::size_t size_{0};      ///< queued events not yet acquired
  std::int64_t high_watermark_{0};
  std::atomic<std::size_t> occupied_{0};  ///< acquired_ + size_
  int producers_waiting_{0};     ///< producers parked in push_block
  bool consumer_waiting_{false};  ///< the consumer is parked in acquire
  bool closed_{false};
};

}  // namespace mcs::serve
