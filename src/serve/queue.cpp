#include "serve/queue.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/error.hpp"

namespace mcs::serve {

// enqueue_locked constructs a slot in place before it is first read and
// again on every later write; no slot is ever destroyed, which is valid
// only for a trivially destructible type.
static_assert(std::is_trivially_copyable_v<QueuedEvent> &&
              std::is_trivially_destructible_v<QueuedEvent>);

EventRing::EventRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw InvalidArgumentError("serve queue: capacity must be >= 1");
  }
  if (capacity >
      std::numeric_limits<std::size_t>::max() / sizeof(QueuedEvent)) {
    throw InvalidArgumentError("serve queue: capacity too large");
  }
  slots_ = std::allocator<QueuedEvent>{}.allocate(capacity);
}

EventRing::~EventRing() {
  std::allocator<QueuedEvent>{}.deallocate(slots_, capacity_);
}

void EventRing::enqueue_locked(const ServeEvent* events, std::size_t count,
                               std::uint64_t enqueue_ns) {
  for (std::size_t i = 0; i < count; ++i) {
    std::construct_at(&slots_[(head_ + size_ + i) % capacity_],
                      QueuedEvent{events[i], enqueue_ns});
  }
  size_ += count;
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
  not_full_.wait(lock, [&] { return closed_ || has_space(count); });
  if (closed_) return -1;
  enqueue_locked(events, count, enqueue_ns);
  const auto depth = static_cast<std::int64_t>(size_);
  lock.unlock();
  // One wake regardless of batch size: the single consumer drains in
  // batches anyway.
  not_empty_.notify_one();
  return depth;
}

std::int64_t EventRing::try_push(const ServeEvent* events, std::size_t count,
                                 std::uint64_t enqueue_ns) {
  if (count == 0) return 0;  // nothing to enqueue; depth not inspected
  std::int64_t depth = -1;
  {
    const std::scoped_lock lock(mutex_);
    if (closed_ || !has_space(count)) return -1;
    enqueue_locked(events, count, enqueue_ns);
    depth = static_cast<std::int64_t>(size_);
  }
  not_empty_.notify_one();
  return depth;
}

std::size_t EventRing::pop_batch(std::vector<PoppedEvent>& out,
                                 std::size_t max) {
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
  const std::size_t taken = std::min(size_, std::max<std::size_t>(max, 1));
  if (taken == 0) return 0;  // closed and drained
  for (std::size_t i = 0; i < taken; ++i) {
    QueuedEvent& slot = slots_[(head_ + i) % capacity_];
    // depth_left = ring occupancy after this batch + the batch tail still
    // ahead of the consumer, i.e. exactly what a one-at-a-time pop would
    // have reported for this event.
    out.push_back(PoppedEvent{std::move(slot.event), slot.enqueue_ns,
                              static_cast<std::int64_t>(size_ - i - 1)});
  }
  head_ = (head_ + taken) % capacity_;
  size_ -= taken;
  lock.unlock();
  // Batch removal may have made room for several blocked producers.
  not_full_.notify_all();
  return taken;
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
