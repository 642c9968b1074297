// Events fed to a serving engine the way every producer feeds it.
//
// serve::ShardBatcher is the engine's one handoff: it places each round on
// a shard at its round_open and keeps the round's later events there, so a
// round's events must go through one batcher. feed() runs a whole event
// list through one; at the default batch_size 1 each event is its own
// submit_batch with its own verdict.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/engine.hpp"
#include "serve/event.hpp"

namespace mcs::test_support {

/// What feed() does with an event a kReject engine turns away as full.
enum class OnFull {
  kShed,  ///< drop it, as a producer under load shedding does
  kWait,  ///< offer it again until it fits (needs batch_size 1)
};

/// Hands `events` to `engine` in order through one ShardBatcher and
/// flushes it. Returns the number of events the engine accepted.
std::int64_t feed(serve::ServeEngine& engine,
                  const std::vector<serve::ServeEvent>& events,
                  OnFull on_full = OnFull::kShed);

}  // namespace mcs::test_support
