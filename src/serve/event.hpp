// The serving engine's event vocabulary and JSONL wire format
// (schema "mcs.serve.v1").
//
// The online mechanism is inherently event-driven: tasks are announced as
// sensing queries arrive, phones bid when they join, the slot clock ticks,
// and payments are settled at reported departure. The batch harnesses
// collapse all of that into one Scenario; a serving path cannot. ServeEvent
// is the unit of traffic the streaming engine consumes -- either
// synthesized live by the load generator or decoded from a recorded JSONL
// stream.
//
// Wire format: one JSON object per line. The first line of a stream is the
// header {"schema":"mcs.serve.v1"}; every following line carries an "ev"
// discriminator plus the round it belongs to:
//
//   {"ev":"round_open","round":0,"slots":12,"value":"30"}
//   {"ev":"task_arrived","round":0,"slot":1,"task":0}            (+"value")
//   {"ev":"bid_submitted","round":0,"agent":3,"from":1,"to":4,"cost":"7.5"}
//   {"ev":"slot_tick","round":0,"slot":1}
//   {"ev":"round_close","round":0}
//
// Money fields travel as Money::to_string decimal strings (exact; doubles
// never touch mechanism arithmetic). Encoding and decoding round-trip
// byte-identically, which the replay determinism tests pin.
//
// Decoding: one canonical reader, read_canonical_line, reads an event line
// in exactly the layout the encoder writes (members in encoder order, no
// whitespace, unsigned integers and unsigned Money strings) from the front
// of a byte view, straight into an event, checking every field's bounds as
// it reads. The discriminator's first byte picks the kind, so each line
// costs one literal compare per member. decode_serve_line takes a line the
// reader reads to its end; StreamDecoder (serve/wire.hpp) runs the same
// reader where each line sits in its chunk. Every other line -- the
// header, reordered keys, whitespace, escapes, unknown members, other
// number tokens, out-of-domain values -- is parsed by io::parse_json and
// checked by the field rules, which alone give the verdict and error text
// for it. The reader takes only lines the field rules accept, with the
// same event, so the two tiers together accept exactly what the field
// rules accept (the JSONL edge lines and differential fuzz pin this
// against a tree-walking oracle, line by line and through StreamDecoder).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "common/interval.hpp"
#include "common/money.hpp"
#include "common/types.hpp"
#include "model/bid.hpp"

namespace mcs::serve {

inline constexpr std::string_view kServeSchema = "mcs.serve.v1";

/// Largest admissible round id, shared by both codecs. JSONL numbers pass
/// through double on the read side, so ids above 2^53-1 would round
/// silently; the binary codec carries exact int64 but enforces the same
/// cap so the two formats accept exactly the same streams (the
/// differential fuzz pins this).
inline constexpr std::int64_t kMaxServeRound = (std::int64_t{1} << 53) - 1;

enum class ServeEventKind {
  kRoundOpen,     ///< a new auction round begins (carries horizon + nu)
  kTaskArrived,   ///< sensing query becomes a task in the current slot
  kBidSubmitted,  ///< phone joins the market with its bid (its arrival slot)
  kSlotTick,      ///< the virtual clock closes the named slot
  kRoundClose,    ///< the round is over; settle and emit the outcome
};

[[nodiscard]] std::string_view to_string(ServeEventKind kind);

/// One event on the wire. Fields that do not apply to a kind stay at their
/// defaults; the factory functions below build well-formed events.
struct ServeEvent {
  ServeEventKind kind{ServeEventKind::kSlotTick};
  std::int64_t round{0};

  // kRoundOpen
  Slot::rep_type num_slots{0};  ///< m, the round horizon
  Money round_value;            ///< default task value nu

  // kTaskArrived / kSlotTick (and implied for kBidSubmitted: window begin)
  Slot slot{0};

  // kTaskArrived
  TaskId task{-1};
  std::optional<Money> task_value;  ///< weighted-query override

  // kBidSubmitted
  PhoneId agent{-1};
  SlotInterval window{SlotInterval::of(1, 1)};  ///< reported [a~, d~]
  Money claimed_cost;

  /// Client-side schedule lag at send time (how far behind its intended
  /// paced deadline the producer was), stamped by run_paced_load so the
  /// trace plane can render ingest lag as its own span. In-memory only:
  /// the mcs.serve.v1 codec neither encodes nor decodes it (the wire
  /// format is unchanged; decoded events carry 0).
  std::uint64_t client_lag_ns{0};

  friend bool operator==(const ServeEvent&, const ServeEvent&) = default;
};

/// Factories (the only supported way to build events in code).
[[nodiscard]] ServeEvent round_open(std::int64_t round,
                                    Slot::rep_type num_slots, Money value);
[[nodiscard]] ServeEvent task_arrived(std::int64_t round, Slot slot,
                                      TaskId task,
                                      std::optional<Money> value = {});
[[nodiscard]] ServeEvent bid_submitted(std::int64_t round, PhoneId agent,
                                       const model::Bid& bid);
[[nodiscard]] ServeEvent slot_tick(std::int64_t round, Slot slot);
[[nodiscard]] ServeEvent round_close(std::int64_t round);

/// The bid carried by a kBidSubmitted event.
[[nodiscard]] model::Bid bid_of(const ServeEvent& event);

/// The stream header line, without its newline.
inline constexpr std::string_view kServeStreamHeader =
    R"({"schema":"mcs.serve.v1"})";

/// Writes the stream header line (kServeStreamHeader and '\n').
void write_stream_header(std::ostream& os);

/// Appends one event as its JSONL line, terminated by '\n'.
void append_serve_line(std::string& out, const ServeEvent& event);

/// Renders one event as its JSONL line, without the trailing newline.
[[nodiscard]] std::string encode_serve_event(const ServeEvent& event);

/// Sets every field of `event` but its kind and round to its default, one
/// store per field (`event = ServeEvent{}` compiles to a block fill that
/// costs more than a whole decode). A decoder that reuses one event calls
/// it before writing the kind's own fields, so nothing of the previous
/// event survives.
inline void reset_fields(ServeEvent& event) {
  static_assert(sizeof(ServeEvent) == 88, "reset every ServeEvent field");
  event.num_slots = 0;
  event.round_value = Money{};
  event.slot = Slot{0};
  event.task = TaskId{-1};
  event.task_value.reset();
  event.agent = PhoneId{-1};
  event.window = SlotInterval::of(1, 1);
  event.claimed_cost = Money{};
  event.client_lag_ns = 0;
}

/// The canonical reader (see the file comment). Reads the event line at
/// the front of `bytes` in exactly append_serve_line's layout (leading
/// zeros and trailing fraction zeros aside, which read as the field rules
/// read them) into `event`, writing every field. Returns the line's length
/// through its closing '}', or 0 when `bytes` does not begin with such a
/// line or one of its values lies outside the field rules' bounds (`event`
/// is then unspecified). What follows the '}' is the caller's to check.
[[nodiscard]] std::size_t read_canonical_line(std::string_view bytes,
                                              ServeEvent& event);

/// Decodes one raw line: a header line (any object with a "schema"
/// member) yields nullopt, anything else one event. Throws
/// InvalidArgumentError on malformed JSON, an unknown discriminator,
/// missing/mistyped fields, or out-of-domain values. A line the encoder
/// wrote decodes through read_canonical_line without touching the
/// allocator (see the file comment).
[[nodiscard]] std::optional<ServeEvent> decode_serve_line(
    std::string_view line);

}  // namespace mcs::serve
