#include "serve/event.hpp"

#include <array>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace mcs::serve {

namespace {

[[noreturn]] void bad_event(const std::string& what) {
  throw InvalidArgumentError("mcs.serve.v1 event: " + what);
}

/// Every slot/task/agent field is an int32 in memory (Slot::rep_type and
/// friends); decoding wider values would silently truncate, which for an
/// untrusted stream is indistinguishable from corruption. Reject instead.
constexpr std::int64_t kMaxNarrowField =
    std::numeric_limits<std::int32_t>::max();

/// The top-level members the field rules read. Other members are checked
/// for syntax (and duplicates) like any JSON, then ignored.
enum class Key : std::uint8_t {
  kSchema,
  kEv,
  kRound,
  kSlots,
  kValue,
  kSlot,
  kTask,
  kAgent,
  kFrom,
  kTo,
  kCost,
};
constexpr std::array<std::string_view, 11> kKeyNames = {
    "schema", "ev",    "round", "slots", "value", "slot",
    "task",   "agent", "from",  "to",    "cost"};

std::optional<Key> key_of(std::string_view name) {
  for (std::size_t i = 0; i < kKeyNames.size(); ++i) {
    if (name == kKeyNames[i]) return static_cast<Key>(i);
  }
  return std::nullopt;
}

/// One member's value as the field rules read it. The flat scan fills
/// `text` (a string's bytes) or `integer`; the io::parse_json fallback
/// points `tree` at the parsed value, whose accessors apply the same type
/// checks.
struct Scalar {
  bool present{false};
  bool is_string{false};
  std::string_view text;
  std::int64_t integer{0};
  const io::JsonValue* tree{nullptr};
};

/// A line's known top-level members, by Key. The views point into the line
/// (flat scan) or into its parse tree (fallback).
struct MemberTable {
  std::array<Scalar, kKeyNames.size()> members{};
  bool object{true};  ///< false: valid JSON, but not an object

  [[nodiscard]] const Scalar* find(Key key) const {
    const Scalar& member = members[static_cast<std::size_t>(key)];
    return member.present ? &member : nullptr;
  }
};

bool is_json_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r';
}

/// Integer tokens of at most this many digits are converted by the scan:
/// they stay below 2^53, so the value is exactly the double io::parse_json
/// would produce.
constexpr std::size_t kMaxScanDigits = 15;

/// Unknown members the scan tracks for the duplicate-key rule; a line with
/// more goes to the fallback.
constexpr std::size_t kMaxScanUnknown = 8;

/// `-?[0-9]{1,15}` (leading zeros allowed, as strtod allows them).
bool parse_short_integer(std::string_view token, std::int64_t& out) {
  const bool negative = !token.empty() && token.front() == '-';
  if (negative) token.remove_prefix(1);
  if (token.empty() || token.size() > kMaxScanDigits) return false;
  std::int64_t value = 0;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + (ch - '0');
  }
  out = negative ? -value : value;
  return true;
}

/// One pass over a line that is a flat JSON object whose members are
/// escape-free strings or short integers -- every line the encoder writes.
/// Fills `table` and returns true only when io::parse_json would accept the
/// line and build the same members. Anything else (escapes, raw control
/// characters, containers, true/false/null, other number tokens, duplicate
/// keys, syntax errors) returns false, and the caller decodes the line
/// through io::parse_json, whose verdict then stands.
bool scan_flat_object(std::string_view line, MemberTable& table) {
  const char* at = line.data();
  const char* const end = at + line.size();
  const auto skip_space = [&] {
    while (at != end && is_json_space(*at)) ++at;
  };
  // A string body after its opening quote, up to and past the closing one.
  const auto string_body = [&](std::string_view& out) {
    const char* const begin = at;
    for (; at != end; ++at) {
      const auto ch = static_cast<unsigned char>(*at);
      if (ch == '"') {
        out = std::string_view(begin, static_cast<std::size_t>(at - begin));
        ++at;
        return true;
      }
      if (ch == '\\' || ch < 0x20) return false;
    }
    return false;
  };
  std::array<std::string_view, kMaxScanUnknown> unknown;
  std::size_t unknown_count = 0;

  skip_space();
  if (at == end || *at != '{') return false;
  ++at;
  skip_space();
  if (at != end && *at == '}') {
    ++at;
    skip_space();
    return at == end;
  }
  while (true) {
    std::string_view name;
    if (at == end || *at != '"') return false;
    ++at;
    if (!string_body(name)) return false;
    skip_space();
    if (at == end || *at != ':') return false;
    ++at;
    skip_space();
    if (at == end) return false;
    Scalar value;
    value.present = true;
    if (*at == '"') {
      ++at;
      if (!string_body(value.text)) return false;
      value.is_string = true;
    } else {
      // The token io::parse_json's number rule would take.
      const char* const begin = at;
      while (at != end && ((*at >= '0' && *at <= '9') || *at == '.' ||
                           *at == 'e' || *at == 'E' || *at == '+' ||
                           *at == '-')) {
        ++at;
      }
      if (!parse_short_integer(
              std::string_view(begin, static_cast<std::size_t>(at - begin)),
              value.integer)) {
        return false;
      }
    }
    if (const std::optional<Key> key = key_of(name)) {
      Scalar& member = table.members[static_cast<std::size_t>(*key)];
      if (member.present) return false;  // duplicate key
      member = value;
    } else {
      for (std::size_t i = 0; i < unknown_count; ++i) {
        if (unknown[i] == name) return false;  // duplicate key
      }
      if (unknown_count == unknown.size()) return false;
      unknown[unknown_count++] = name;
    }
    skip_space();
    if (at == end) return false;
    if (*at == ',') {
      ++at;
      skip_space();
      continue;
    }
    if (*at != '}') return false;
    ++at;
    skip_space();
    return at == end;
  }
}

/// The known members of a parse tree.
MemberTable table_of(const io::JsonValue& parsed) {
  MemberTable table;
  if (!parsed.is_object()) {
    table.object = false;
    return table;
  }
  for (const auto& [name, value] : parsed.as_object()) {
    if (const std::optional<Key> key = key_of(name)) {
      Scalar& member = table.members[static_cast<std::size_t>(*key)];
      member.present = true;
      member.tree = &value;
    }
  }
  return table;
}

std::int64_t int_of(const Scalar& member) {
  if (member.tree != nullptr) return member.tree->as_int();
  if (member.is_string) {
    throw InvalidArgumentError("JSON value is not a number");
  }
  return member.integer;
}

std::string_view string_of(const Scalar& member) {
  if (member.tree != nullptr) return member.tree->as_string();
  if (!member.is_string) {
    throw InvalidArgumentError("JSON value is not a string");
  }
  return member.text;
}

const Scalar& require(const MemberTable& table, Key key) {
  const Scalar* member = table.find(key);
  if (member == nullptr) {
    bad_event("missing field '" +
              std::string(kKeyNames[static_cast<std::size_t>(key)]) + "'");
  }
  return *member;
}

/// Required integral member with an inclusive domain check. Values outside
/// [min_value, max_value] are rejected -- never narrowed or wrapped.
std::int64_t require_int(const MemberTable& table, Key key,
                         std::int64_t min_value,
                         std::int64_t max_value = kMaxNarrowField) {
  const std::int64_t value = int_of(require(table, key));
  if (value < min_value || value > max_value) {
    bad_event("field '" +
              std::string(kKeyNames[static_cast<std::size_t>(key)]) +
              "' out of domain");
  }
  return value;
}

/// Required Money member (decimal string, Money::parse format).
Money require_money(const MemberTable& table, Key key) {
  return Money::parse(string_of(require(table, key)));
}

Slot::rep_type to_slot_rep(std::int64_t value) {
  return static_cast<Slot::rep_type>(value);
}

}  // namespace

std::string_view to_string(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      return "round_open";
    case ServeEventKind::kTaskArrived:
      return "task_arrived";
    case ServeEventKind::kBidSubmitted:
      return "bid_submitted";
    case ServeEventKind::kSlotTick:
      return "slot_tick";
    case ServeEventKind::kRoundClose:
      return "round_close";
  }
  return "unknown";
}

ServeEvent round_open(std::int64_t round, Slot::rep_type num_slots,
                      Money value) {
  ServeEvent event;
  event.kind = ServeEventKind::kRoundOpen;
  event.round = round;
  event.num_slots = num_slots;
  event.round_value = value;
  return event;
}

ServeEvent task_arrived(std::int64_t round, Slot slot, TaskId task,
                        std::optional<Money> value) {
  ServeEvent event;
  event.kind = ServeEventKind::kTaskArrived;
  event.round = round;
  event.slot = slot;
  event.task = task;
  event.task_value = value;
  return event;
}

ServeEvent bid_submitted(std::int64_t round, PhoneId agent,
                         const model::Bid& bid) {
  ServeEvent event;
  event.kind = ServeEventKind::kBidSubmitted;
  event.round = round;
  event.slot = bid.window.begin();  // phones bid when they join
  event.agent = agent;
  event.window = bid.window;
  event.claimed_cost = bid.claimed_cost;
  return event;
}

ServeEvent slot_tick(std::int64_t round, Slot slot) {
  ServeEvent event;
  event.kind = ServeEventKind::kSlotTick;
  event.round = round;
  event.slot = slot;
  return event;
}

ServeEvent round_close(std::int64_t round) {
  ServeEvent event;
  event.kind = ServeEventKind::kRoundClose;
  event.round = round;
  return event;
}

model::Bid bid_of(const ServeEvent& event) {
  MCS_EXPECTS(event.kind == ServeEventKind::kBidSubmitted,
              "bid_of requires a bid_submitted event");
  return model::Bid{event.window, event.claimed_cost};
}

void write_stream_header(std::ostream& os) {
  io::JsonWriter writer(os);
  writer.begin_object().field("schema", kServeSchema).end_object();
  os << '\n';
}

void write_serve_event(std::ostream& os, const ServeEvent& event) {
  io::JsonWriter writer(os);
  writer.begin_object();
  writer.field("ev", to_string(event.kind));
  writer.field("round", event.round);
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      writer.field("slots", static_cast<std::int64_t>(event.num_slots));
      writer.field("value", event.round_value.to_string());
      break;
    case ServeEventKind::kTaskArrived:
      writer.field("slot", static_cast<std::int64_t>(event.slot.value()));
      writer.field("task", static_cast<std::int64_t>(event.task.value()));
      if (event.task_value) {
        writer.field("value", event.task_value->to_string());
      }
      break;
    case ServeEventKind::kBidSubmitted:
      writer.field("agent", static_cast<std::int64_t>(event.agent.value()));
      writer.field("from",
                   static_cast<std::int64_t>(event.window.begin().value()));
      writer.field("to", static_cast<std::int64_t>(event.window.end().value()));
      writer.field("cost", event.claimed_cost.to_string());
      break;
    case ServeEventKind::kSlotTick:
      writer.field("slot", static_cast<std::int64_t>(event.slot.value()));
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
  writer.end_object();
  os << '\n';
}

std::string encode_serve_event(const ServeEvent& event) {
  std::ostringstream os;
  write_serve_event(os, event);
  std::string line = std::move(os).str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

namespace {

/// The field rules, once, over either decode path's member table. Any
/// object with a "schema" member is a header line (nullopt).
std::optional<ServeEvent> decode_members(const MemberTable& table) {
  if (const Scalar* schema = table.find(Key::kSchema)) {
    const std::string_view name = string_of(*schema);
    if (name != kServeSchema) {
      bad_event("unsupported schema '" + std::string(name) + "'");
    }
    return std::nullopt;
  }
  if (!table.object) bad_event("line is not a JSON object");
  const std::string_view ev = string_of(require(table, Key::kEv));
  const std::int64_t round = require_int(table, Key::kRound, 0, kMaxServeRound);

  if (ev == "round_open") {
    const std::int64_t slots = require_int(table, Key::kSlots, 1);
    return round_open(round, to_slot_rep(slots),
                      require_money(table, Key::kValue));
  }
  if (ev == "task_arrived") {
    const Slot slot{to_slot_rep(require_int(table, Key::kSlot, 1))};
    const TaskId task{
        static_cast<TaskId::rep_type>(require_int(table, Key::kTask, 0))};
    std::optional<Money> value;
    if (table.find(Key::kValue) != nullptr) {
      value = require_money(table, Key::kValue);
    }
    return task_arrived(round, slot, task, value);
  }
  if (ev == "bid_submitted") {
    const PhoneId agent{
        static_cast<PhoneId::rep_type>(require_int(table, Key::kAgent, 0))};
    const std::int64_t from = require_int(table, Key::kFrom, 1);
    const std::int64_t to = require_int(table, Key::kTo, 1);
    if (to < from) bad_event("bid window end precedes begin");
    const Money cost = require_money(table, Key::kCost);
    if (cost.is_negative()) bad_event("negative claimed cost");
    return bid_submitted(
        round, agent,
        model::Bid{SlotInterval::of(to_slot_rep(from), to_slot_rep(to)), cost});
  }
  if (ev == "slot_tick") {
    return slot_tick(round,
                     Slot{to_slot_rep(require_int(table, Key::kSlot, 1))});
  }
  if (ev == "round_close") {
    return round_close(round);
  }
  bad_event("unknown event kind '" + std::string(ev) + "'");
}

}  // namespace

std::optional<ServeEvent> decode_serve_line(std::string_view line) {
  MemberTable table;
  if (scan_flat_object(line, table)) return decode_members(table);
  const io::JsonValue parsed = io::parse_json(line);
  return decode_members(table_of(parsed));
}

}  // namespace mcs::serve
