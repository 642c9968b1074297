// The mcs.serve.v1 line decoder by parse tree -- the JSONL decode oracle.
//
// serve::decode_serve_line reads a line in the encoder's own layout
// straight into the event and parses only the other lines with
// io::parse_json. This oracle takes no shortcut: every line goes through
// io::parse_json, and the field rules walk the resulting JsonValue tree.
// The JSONL edge lines and differential fuzz in serve_wire_test check that
// both accept the same lines and decode the same events.
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
