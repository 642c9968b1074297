#include "support/engine_feed.hpp"

#include <thread>

#include "common/assert.hpp"

namespace mcs::test_support {

std::int64_t feed(serve::ServeEngine& engine,
                  const std::vector<serve::ServeEvent>& events,
                  OnFull on_full) {
  MCS_EXPECTS(on_full == OnFull::kShed || engine.config().batch_size == 1,
              "feed: waiting out a full queue needs batch_size 1");
  serve::ShardBatcher batcher(engine);
  for (const serve::ServeEvent& event : events) {
    while (batcher.add(event) == serve::SubmitStatus::kRejectedQueueFull &&
           on_full == OnFull::kWait) {
      std::this_thread::yield();
    }
  }
  (void)batcher.flush();
  return batcher.accepted_events();
}

}  // namespace mcs::test_support
