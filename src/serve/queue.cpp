#include "serve/queue.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace mcs::serve {

// enqueue_locked memcpys events into uninitialized slots, which creates
// them only for a trivially copyable type; no slot is ever destroyed,
// which is valid only for a trivially destructible one. The consumer
// reads the slots acquire() exposes after the lock is dropped: the
// producer's writes happened before that acquire's lock, and has_space()
// keeps producers off those slots until the next acquire releases them.
static_assert(std::is_trivially_copyable_v<ServeEvent> &&
              std::is_trivially_destructible_v<ServeEvent>);

EventRing::EventRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw InvalidArgumentError("serve queue: capacity must be >= 1");
  }
  if (capacity > std::numeric_limits<std::size_t>::max() / kSlotBytes) {
    throw InvalidArgumentError("serve queue: capacity too large");
  }
  events_ = std::allocator<ServeEvent>{}.allocate(capacity);
  stamps_ = std::allocator<std::uint64_t>{}.allocate(capacity);
}

EventRing::~EventRing() {
  std::allocator<ServeEvent>{}.deallocate(events_, capacity_);
  std::allocator<std::uint64_t>{}.deallocate(stamps_, capacity_);
}

void EventRing::enqueue_locked(const ServeEvent* events, std::size_t count,
                               std::uint64_t enqueue_ns) {
  // Up to the end of the arrays, then the rest from slot 0.
  const std::size_t first = std::min(count, capacity_ - tail_);
  std::memcpy(events_ + tail_, events, first * sizeof(ServeEvent));
  std::memcpy(events_, events + first, (count - first) * sizeof(ServeEvent));
  std::fill_n(stamps_ + tail_, first, enqueue_ns);
  std::fill_n(stamps_, count - first, enqueue_ns);
  tail_ += count;
  if (tail_ >= capacity_) tail_ -= capacity_;
  size_ += count;
  occupied_.store(acquired_ + size_, std::memory_order_relaxed);
  high_watermark_ = std::max(high_watermark_,
                             static_cast<std::int64_t>(size_));
}

std::int64_t EventRing::push_block(const ServeEvent* events,
                                   std::size_t count,
                                   std::uint64_t enqueue_ns) {
  if (count == 0) return 0;  // nothing to enqueue; depth not inspected
  if (count > capacity_) {
    throw InvalidArgumentError(
        "serve queue: batch larger than the ring capacity");
  }
  std::unique_lock lock(mutex_);
  if (!closed_ && !has_space(count)) {
    ++producers_waiting_;
    not_full_.wait(lock, [&] { return closed_ || has_space(count); });
    --producers_waiting_;
  }
  if (closed_) return -1;
  enqueue_locked(events, count, enqueue_ns);
  const auto depth = static_cast<std::int64_t>(size_);
  const bool wake = consumer_waiting_;
  lock.unlock();
  if (wake) not_empty_.notify_one();
  return depth;
}

std::int64_t EventRing::try_push(const ServeEvent* events, std::size_t count,
                                 std::uint64_t enqueue_ns) {
  if (count == 0) return 0;  // nothing to enqueue; depth not inspected
  std::unique_lock lock(mutex_);
  if (closed_ || !has_space(count)) return -1;
  enqueue_locked(events, count, enqueue_ns);
  const auto depth = static_cast<std::int64_t>(size_);
  const bool wake = consumer_waiting_;
  lock.unlock();
  if (wake) not_empty_.notify_one();
  return depth;
}

std::size_t EventRing::acquire(RingView& view, std::size_t max,
                               std::size_t released) {
  std::unique_lock lock(mutex_);
  MCS_EXPECTS(released == acquired_,
              "serve queue: acquire must release the previous view");
  head_ += released;
  if (head_ >= capacity_) head_ -= capacity_;
  acquired_ = 0;
  occupied_.store(size_, std::memory_order_relaxed);  // taking keeps it
  bool wake_producers = released > 0 && producers_waiting_ > 0;
  if (!closed_ && size_ == 0) {
    // About to park: hand the freed slots over first.
    if (wake_producers) not_full_.notify_all();
    wake_producers = false;
    consumer_waiting_ = true;
    not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
    consumer_waiting_ = false;
  }
  const std::size_t taken = std::min(size_, std::max<std::size_t>(max, 1));
  const std::size_t first = std::min(taken, capacity_ - head_);
  expose(view, 0, head_, first);
  expose(view, 1, 0, taken - first);
  acquired_ = taken;
  size_ -= taken;
  lock.unlock();
  if (wake_producers) not_full_.notify_all();
  return taken;  // 0: closed and drained
}

std::int64_t EventRing::high_watermark() const {
  const std::scoped_lock lock(mutex_);
  return high_watermark_;
}

void EventRing::close() {
  {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

}  // namespace mcs::serve
