// Replaying a recorded serve stream (either wire format) through the
// engine.
//
// The stream is read by read_serve_stream -- the one StreamDecoder every
// transport uses (serve/wire.hpp), with its strict decoders and its
// end-of-stream rule -- and handed to the engine through one ShardBatcher
// (at batch_size 1 each event is its own submit_batch). A corrupt stream
// produces a clean InvalidArgumentError naming the line (JSONL) or byte
// range (binary) -- never UB. Admission rejections (kReject policy under
// load) are counted, not fatal: shedding is the policy working as
// configured.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "serve/engine.hpp"

namespace mcs::serve {

struct ReplayStats {
  std::int64_t events{0};    ///< events decoded
  std::int64_t accepted{0};  ///< events the engine admitted
  std::int64_t shed{0};      ///< events rejected by admission control
};

/// Feeds every event of `is` into `engine` (the caller drains
/// afterwards), autodetecting the wire format, through a ShardBatcher
/// sized by the engine's batch_size (shed accounting has batch
/// granularity). The `bool` selects nothing: the batch size is the
/// engine's. Throws InvalidArgumentError on malformed input or when the
/// engine is shut down.
ReplayStats replay_event_stream(std::istream& is, ServeEngine& engine,
                                bool batch = false);

}  // namespace mcs::serve
