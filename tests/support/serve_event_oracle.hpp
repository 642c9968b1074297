// The mcs.serve.v1 line decoder by parse tree -- the JSONL decode oracle.
//
// serve::decode_serve_line scans a canonical line once into a member
// table and falls back to io::parse_json only for lines the scan does not
// take. This oracle is the decoder it replaced: every line goes through
// io::parse_json, and the field rules walk the resulting JsonValue tree.
// The JSONL differential fuzz in serve_wire_test checks that both accept
// the same lines and decode the same events.
#pragma once

#include <optional>
#include <string_view>

#include "serve/event.hpp"

namespace mcs::test_support {

/// Decodes one raw line through a full parse tree: the header line yields
/// nullopt, anything else one event. Throws InvalidArgumentError on
/// malformed JSON, missing/mistyped fields, or out-of-domain values.
[[nodiscard]] std::optional<serve::ServeEvent> decode_serve_line_by_tree(
    std::string_view line);

}  // namespace mcs::test_support
