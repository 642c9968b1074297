#include "serve/replay.hpp"

#include "common/error.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {
namespace {

[[noreturn]] void throw_stopped() {
  throw InvalidArgumentError(
      "serve replay: engine is shut down; cannot replay into it");
}

}  // namespace

ReplayStats replay_event_stream(std::istream& is, ServeEngine& engine,
                                bool /*batch*/) {
  ShardBatcher batcher(engine);
  ReplayStats stats;
  stats.events = read_serve_stream(is, [&batcher](const ServeEvent& event) {
    if (batcher.add(event) == SubmitStatus::kRejectedStopped) throw_stopped();
  });
  if (batcher.flush() == SubmitStatus::kRejectedStopped) throw_stopped();
  stats.accepted = batcher.accepted_events();
  stats.shed = batcher.rejected_events();
  return stats;
}

}  // namespace mcs::serve
