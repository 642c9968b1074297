#include "support/serve_event_oracle.hpp"

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "io/json_parse.hpp"

namespace mcs::test_support {

namespace {

using serve::ServeEvent;

[[noreturn]] void bad_event(const std::string& what) {
  throw InvalidArgumentError("mcs.serve.v1 event: " + what);
}

constexpr std::int64_t kMaxNarrowField =
    std::numeric_limits<std::int32_t>::max();

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

Money require_money(const io::JsonValue& line, std::string_view key) {
  const io::JsonValue* member = line.find(key);
  if (member == nullptr) bad_event("missing field '" + std::string(key) + "'");
  return Money::parse(member->as_string());
}

Slot::rep_type to_slot_rep(std::int64_t value) {
  return static_cast<Slot::rep_type>(value);
}

ServeEvent decode_tree(const io::JsonValue& line) {
  if (!line.is_object()) bad_event("line is not a JSON object");
  const io::JsonValue* discriminator = line.find("ev");
  if (discriminator == nullptr) bad_event("missing field 'ev'");
  const std::string& ev = discriminator->as_string();
  const std::int64_t round =
      require_int(line, "round", 0, serve::kMaxServeRound);

  if (ev == "round_open") {
    const std::int64_t slots = require_int(line, "slots", 1);
    return serve::round_open(round, to_slot_rep(slots),
                             require_money(line, "value"));
  }
  if (ev == "task_arrived") {
    const Slot slot{to_slot_rep(require_int(line, "slot", 1))};
    const TaskId task{
        static_cast<TaskId::rep_type>(require_int(line, "task", 0))};
    std::optional<Money> value;
    if (line.find("value") != nullptr) value = require_money(line, "value");
    return serve::task_arrived(round, slot, task, value);
  }
  if (ev == "bid_submitted") {
    const PhoneId agent{
        static_cast<PhoneId::rep_type>(require_int(line, "agent", 0))};
    const std::int64_t from = require_int(line, "from", 1);
    const std::int64_t to = require_int(line, "to", 1);
    if (to < from) bad_event("bid window end precedes begin");
    const Money cost = require_money(line, "cost");
    if (cost.is_negative()) bad_event("negative claimed cost");
    return serve::bid_submitted(
        round, agent,
        model::Bid{SlotInterval::of(to_slot_rep(from), to_slot_rep(to)), cost});
  }
  if (ev == "slot_tick") {
    return serve::slot_tick(round,
                            Slot{to_slot_rep(require_int(line, "slot", 1))});
  }
  if (ev == "round_close") {
    return serve::round_close(round);
  }
  bad_event("unknown event kind '" + ev + "'");
}

}  // namespace

std::optional<ServeEvent> decode_serve_line_by_tree(std::string_view line) {
  const io::JsonValue parsed = io::parse_json(line);
  if (const io::JsonValue* schema = parsed.find("schema")) {
    if (schema->as_string() != serve::kServeSchema) {
      bad_event("unsupported schema '" + schema->as_string() + "'");
    }
    return std::nullopt;  // header line
  }
  return decode_tree(parsed);
}

}  // namespace mcs::test_support
