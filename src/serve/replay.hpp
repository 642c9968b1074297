// Replaying a recorded serve stream (either wire format) through the
// engine.
//
// The decoder treats the stream as untrusted bytes. JSONL goes through
// decode_serve_line (its reader for the encoder's own layout, or
// io::parse_json -- hardened against truncation, deep nesting, and invalid
// escapes -- and the strict field checks for every other line); binary
// (mcs.serve.b1, autodetected by its magic) goes through WireDecoder's
// equally strict in-place frame decoder. A corrupt stream produces a clean
// InvalidArgumentError naming the line (JSONL) or byte region (binary) --
// never UB. Admission rejections (kReject policy under load) are counted,
// not fatal: shedding is the policy working as configured.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "serve/engine.hpp"

namespace mcs::serve {

struct ReplayStats {
  /// Non-empty JSONL lines consumed, header included (0 for a binary
  /// stream -- frames are not line-shaped).
  std::int64_t lines{0};
  std::int64_t events{0};    ///< events decoded
  std::int64_t accepted{0};  ///< events the engine admitted
  std::int64_t shed{0};      ///< events rejected by admission control
};

/// Feeds every event of `is` into `engine` (the caller drains
/// afterwards), autodetecting the wire format. When `batch` is true the
/// events are handed over through a ShardBatcher sized by the engine's
/// batch_size (shed accounting then has batch granularity). Throws
/// InvalidArgumentError on malformed input; blank JSONL lines are
/// skipped, a header line may appear anywhere but is only expected first.
ReplayStats replay_event_stream(std::istream& is, ServeEngine& engine,
                                bool batch = false);

}  // namespace mcs::serve
