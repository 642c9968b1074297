#include "serve/event.hpp"

#include <charconv>
#include <cstring>
#include <limits>
#include <ostream>
#include <utility>

#include "common/error.hpp"
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

/// Required integral member with an inclusive domain check. Values outside
/// [min_value, max_value] are rejected -- never narrowed or wrapped.
std::int64_t require_int(const io::JsonValue& line, std::string_view key,
                         std::int64_t min_value,
                         std::int64_t max_value = kMaxNarrowField) {
  const io::JsonValue* member = line.find(key);
  if (member == nullptr) bad_event("missing field '" + std::string(key) + "'");
  const std::int64_t value = member->as_int();
  if (value < min_value || value > max_value) {
    bad_event("field '" + std::string(key) + "' out of domain");
  }
  return value;
}

/// Required Money member (decimal string, Money::parse format).
Money require_money(const io::JsonValue& line, std::string_view key) {
  const io::JsonValue* member = line.find(key);
  if (member == nullptr) bad_event("missing field '" + std::string(key) + "'");
  return Money::parse(member->as_string());
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
  os << kServeStreamHeader << '\n';
}

namespace {

void append_int(std::string& out, std::int64_t value) {
  char digits[24];  // an int64 is at most 20 characters
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

}  // namespace

void append_serve_line(std::string& out, const ServeEvent& event) {
  out += R"({"ev":")";
  out += to_string(event.kind);
  out += R"(","round":)";
  append_int(out, event.round);
  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      out += R"(,"slots":)";
      append_int(out, event.num_slots);
      out += R"(,"value":")";
      out += event.round_value.to_string();
      out += '"';
      break;
    case ServeEventKind::kTaskArrived:
      out += R"(,"slot":)";
      append_int(out, event.slot.value());
      out += R"(,"task":)";
      append_int(out, event.task.value());
      if (event.task_value) {
        out += R"(,"value":")";
        out += event.task_value->to_string();
        out += '"';
      }
      break;
    case ServeEventKind::kBidSubmitted:
      out += R"(,"agent":)";
      append_int(out, event.agent.value());
      out += R"(,"from":)";
      append_int(out, event.window.begin().value());
      out += R"(,"to":)";
      append_int(out, event.window.end().value());
      out += R"(,"cost":")";
      out += event.claimed_cost.to_string();
      out += '"';
      break;
    case ServeEventKind::kSlotTick:
      out += R"(,"slot":)";
      append_int(out, event.slot.value());
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
  out += "}\n";
}

std::string encode_serve_event(const ServeEvent& event) {
  std::string line;
  append_serve_line(line, event);
  line.pop_back();
  return line;
}

namespace {

/// A bounds-checked cursor over the front of a byte view. A read that
/// fails may leave the cursor anywhere: the reader then gives up.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes)
      : at_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  [[nodiscard]] const char* at() const { return at_; }

  /// The next byte, or '\0' at the end of the view.
  [[nodiscard]] char peek() const { return at_ != end_ ? *at_ : '\0'; }

  /// Consumes the literal `text` (its length known at compile time) if the
  /// view continues with it.
  template <std::size_t N>
  bool take(const char (&text)[N]) {
    constexpr std::size_t kLength = N - 1;  // the literal's '\0' aside
    if (static_cast<std::size_t>(end_ - at_) < kLength ||
        std::memcmp(at_, text, kLength) != 0) {
      return false;
    }
    at_ += kLength;
    return true;
  }

  /// Consumes a run of digits whose value lies in [min_value, max_value].
  /// max_value is at most 2^53, so no prefix overflows.
  bool digits(std::int64_t min_value, std::int64_t max_value,
              std::int64_t& out) {
    const char* const begin = at_;
    std::int64_t value = 0;
    for (; at_ != end_; ++at_) {
      const unsigned digit = static_cast<unsigned char>(*at_) - unsigned{'0'};
      if (digit > 9) break;
      value = value * 10 + digit;
      if (value > max_value) return false;
    }
    out = value;
    return at_ != begin && value >= min_value;
  }

  /// Consumes `key` and an integer member value in [min_value, max_value].
  template <std::size_t N>
  bool integer(const char (&key)[N], std::int64_t min_value,
               std::int64_t& out, std::int64_t max_value = kMaxNarrowField) {
    return take(key) && digits(min_value, max_value, out);
  }

  /// Consumes a quoted non-negative Money literal, `"D+(.D{1,6})?"` of at
  /// most Money::max(): the unsigned amounts Money::parse reads, converted
  /// the way it converts them.
  bool money(Money& out) {
    constexpr std::int64_t kMaxWhole = Money::max().micros() / Money::kScale;
    std::int64_t whole = 0;
    if (!take("\"") || !digits(0, kMaxWhole, whole)) return false;
    std::int64_t micros = whole * Money::kScale;
    if (take(".")) {
      const char* const begin = at_;
      for (std::int64_t unit = Money::kScale / 10; unit > 0 && at_ != end_;
           unit /= 10, ++at_) {
        const unsigned digit = static_cast<unsigned char>(*at_) - unsigned{'0'};
        if (digit > 9) break;
        micros += digit * unit;
      }
      if (at_ == begin) return false;
    }
    if (micros > Money::max().micros() || !take("\"")) return false;
    out = Money::from_micros(micros);
    return true;
  }

 private:
  const char* at_;
  const char* const end_;
};

/// The kind named after `{"ev":"`, read up to the round's digits: the
/// discriminator's first byte picks the one literal to compare.
bool read_head(Cursor& in, ServeEventKind& kind) {
  if (!in.take(R"({"ev":")")) return false;
  switch (in.peek()) {
    case 'b':
      kind = ServeEventKind::kBidSubmitted;
      return in.take(R"(bid_submitted","round":)");
    case 's':
      kind = ServeEventKind::kSlotTick;
      return in.take(R"(slot_tick","round":)");
    case 't':
      kind = ServeEventKind::kTaskArrived;
      return in.take(R"(task_arrived","round":)");
    case 'r':
      if (!in.take("round_")) return false;
      if (in.peek() == 'o') {
        kind = ServeEventKind::kRoundOpen;
        return in.take(R"(open","round":)");
      }
      kind = ServeEventKind::kRoundClose;
      return in.take(R"(close","round":)");
    default:
      return false;
  }
}

}  // namespace

std::size_t read_canonical_line(std::string_view bytes, ServeEvent& event) {
  Cursor in(bytes);
  ServeEventKind kind{};
  std::int64_t round = 0;
  if (!read_head(in, kind) || !in.digits(0, kMaxServeRound, round)) return 0;
  reset_fields(event);
  event.kind = kind;
  event.round = round;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  switch (kind) {
    case ServeEventKind::kRoundOpen:
      if (!in.integer(R"(,"slots":)", 1, a) ||
          !in.take(R"(,"value":)") || !in.money(event.round_value)) {
        return 0;
      }
      event.num_slots = to_slot_rep(a);
      break;
    case ServeEventKind::kTaskArrived:
      if (!in.integer(R"(,"slot":)", 1, a) ||
          !in.integer(R"(,"task":)", 0, b)) {
        return 0;
      }
      event.slot = Slot{to_slot_rep(a)};
      event.task = TaskId{static_cast<TaskId::rep_type>(b)};
      if (in.take(R"(,"value":)")) {
        Money value;
        if (!in.money(value)) return 0;
        event.task_value = value;
      }
      break;
    case ServeEventKind::kBidSubmitted:
      if (!in.integer(R"(,"agent":)", 0, a) ||
          !in.integer(R"(,"from":)", 1, b) ||
          !in.integer(R"(,"to":)", b, c) ||
          !in.take(R"(,"cost":)") || !in.money(event.claimed_cost)) {
        return 0;
      }
      event.agent = PhoneId{static_cast<PhoneId::rep_type>(a)};
      event.slot = Slot{to_slot_rep(b)};  // phones bid when they join
      event.window = SlotInterval::of(to_slot_rep(b), to_slot_rep(c));
      break;
    case ServeEventKind::kSlotTick:
      if (!in.integer(R"(,"slot":)", 1, a)) return 0;
      event.slot = Slot{to_slot_rep(a)};
      break;
    case ServeEventKind::kRoundClose:
      break;
  }
  if (!in.take("}")) return 0;
  return static_cast<std::size_t>(in.at() - bytes.data());
}

namespace {

/// The field rules over a parsed line: the verdict, and the error text, for
/// every line the canonical reader does not take. Any object with a
/// "schema" member is a header line (nullopt).
std::optional<ServeEvent> decode_members(const io::JsonValue& line) {
  if (const io::JsonValue* schema = line.find("schema")) {
    if (schema->as_string() != kServeSchema) {
      bad_event("unsupported schema '" + schema->as_string() + "'");
    }
    return std::nullopt;
  }
  if (!line.is_object()) bad_event("line is not a JSON object");
  const io::JsonValue* discriminator = line.find("ev");
  if (discriminator == nullptr) bad_event("missing field 'ev'");
  const std::string& ev = discriminator->as_string();
  const std::int64_t round = require_int(line, "round", 0, kMaxServeRound);

  if (ev == "round_open") {
    const std::int64_t slots = require_int(line, "slots", 1);
    return round_open(round, to_slot_rep(slots), require_money(line, "value"));
  }
  if (ev == "task_arrived") {
    const Slot slot{to_slot_rep(require_int(line, "slot", 1))};
    const TaskId task{
        static_cast<TaskId::rep_type>(require_int(line, "task", 0))};
    std::optional<Money> value;
    if (line.find("value") != nullptr) value = require_money(line, "value");
    return task_arrived(round, slot, task, value);
  }
  if (ev == "bid_submitted") {
    const PhoneId agent{
        static_cast<PhoneId::rep_type>(require_int(line, "agent", 0))};
    const std::int64_t from = require_int(line, "from", 1);
    const std::int64_t to = require_int(line, "to", 1);
    if (to < from) bad_event("bid window end precedes begin");
    const Money cost = require_money(line, "cost");
    if (cost.is_negative()) bad_event("negative claimed cost");
    return bid_submitted(
        round, agent,
        model::Bid{SlotInterval::of(to_slot_rep(from), to_slot_rep(to)), cost});
  }
  if (ev == "slot_tick") {
    return slot_tick(round, Slot{to_slot_rep(require_int(line, "slot", 1))});
  }
  if (ev == "round_close") {
    return round_close(round);
  }
  bad_event("unknown event kind '" + ev + "'");
}

}  // namespace

std::optional<ServeEvent> decode_serve_line(std::string_view line) {
  if (line == kServeStreamHeader) return std::nullopt;
  std::optional<ServeEvent> event(std::in_place);
  const std::size_t canonical = read_canonical_line(line, *event);
  if (canonical != 0 && canonical == line.size()) return event;
  return decode_members(io::parse_json(line));
}

}  // namespace mcs::serve
