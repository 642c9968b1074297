#include "analysis/flight.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "common/error.hpp"
#include "io/json_parse.hpp"
#include "model/scenario_io.hpp"

namespace mcs::analysis {

namespace {

auction::OnlineGreedyConfig online_config(const RunSpec& spec) {
  auction::OnlineGreedyConfig config;
  config.allocate_only_profitable = spec.profitable_only;
  if (spec.reserve > 0.0) {
    config.reserve_price = Money::from_double(spec.reserve);
  }
  return config;
}

}  // namespace

std::unique_ptr<auction::Mechanism> make_mechanism(
    std::string_view name, const auction::OnlineGreedyConfig& config) {
  if (name == "online") {
    return std::make_unique<auction::OnlineGreedyMechanism>(config);
  }
  if (name == "offline") {
    return std::make_unique<auction::OfflineVcgMechanism>();
  }
  if (name == "second-price") {
    return std::make_unique<auction::SecondPriceBaseline>(config);
  }
  throw InvalidArgumentError("unknown mechanism '" + std::string(name) +
                             "' (known: online, offline, second-price)");
}

std::unique_ptr<auction::Mechanism> make_mechanism(const RunSpec& spec) {
  return make_mechanism(spec.mechanism, online_config(spec));
}

// --------------------------------------------------------- encodings

std::string encode_bids(const model::BidProfile& bids) {
  std::ostringstream os;
  for (const model::Bid& bid : bids) {
    os << bid.window.begin().value() << ' ' << bid.window.end().value() << ' '
       << bid.claimed_cost.to_string() << ';';
  }
  return os.str();
}

model::BidProfile decode_bids(const std::string& text) {
  model::BidProfile bids;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) {
      throw InvalidArgumentError("malformed bid encoding: missing ';'");
    }
    std::istringstream entry(text.substr(pos, semi - pos));
    Slot::rep_type begin = 0;
    Slot::rep_type end = 0;
    std::string cost;
    if (!(entry >> begin >> end >> cost)) {
      throw InvalidArgumentError("malformed bid encoding near offset " +
                                 std::to_string(pos));
    }
    bids.push_back(model::Bid{SlotInterval::of(begin, end),
                              Money::parse(cost)});
    pos = semi + 1;
  }
  return bids;
}

std::string encode_outcome(const auction::Outcome& outcome) {
  std::ostringstream os;
  os << "alloc";
  for (int t = 0; t < outcome.allocation.task_count(); ++t) {
    const auto phone = outcome.allocation.phone_for(TaskId{t});
    os << ' ' << (phone ? phone->value() : -1);
  }
  os << " pay";
  for (const Money payment : outcome.payments) {
    os << ' ' << payment.to_string();
  }
  return os.str();
}

// --------------------------------------------------------- record_run

auction::Outcome record_run(obs::EventLog& log, const RunSpec& spec,
                            const model::Scenario& scenario,
                            const model::BidProfile& bids) {
  scenario.validate();
  model::validate_bids(scenario, bids);
  const std::unique_ptr<auction::Mechanism> mechanism = make_mechanism(spec);

  const obs::ScopedEventLog install(&log);
  {
    std::ostringstream scenario_text;
    model::write_scenario(scenario_text, scenario);
    obs::Event started("run_started");
    started.with("mechanism", spec.mechanism)
        .with("reserve", spec.reserve)
        .with("profitable_only", spec.profitable_only)
        .with("phones", static_cast<std::int64_t>(scenario.phone_count()))
        .with("tasks", static_cast<std::int64_t>(scenario.task_count()))
        .with("slots", static_cast<std::int64_t>(scenario.num_slots))
        .with("scenario", scenario_text.str())
        .with("bids", encode_bids(bids));
    log.append(std::move(started));
  }

  const auction::Outcome outcome = mechanism->run(scenario, bids);

  if (spec.mechanism == "online") {
    // One payment_certificate per winner, on one engine over the outcome.
    const auction::CounterfactualEngine engine(
        scenario, bids, online_config(spec), outcome.allocation);
    for (const PhoneId winner : outcome.allocation.winners()) {
      (void)auction::audit_winner_payment(
          engine, winner,
          outcome.payments[static_cast<std::size_t>(winner.value())]);
    }
  }

  {
    obs::Event finished("run_finished");
    finished.with("outcome", encode_outcome(outcome))
        .with("winners", static_cast<std::int64_t>(
                             outcome.allocation.winners().size()))
        .with("total_payment", outcome.total_payment());
    log.append(std::move(finished));
  }
  return outcome;
}

// --------------------------------------------------------- replay_run

namespace {

/// Reads a mcs.events.v1 log one record at a time: parses every non-empty
/// line, checks that the first is the schema header, and hands each record
/// (the header too) to fn, which may move it out. Nothing else is kept, so
/// memory follows the longest record, not the log. Returns the number of
/// records.
template <class Fn>
std::uint64_t for_each_record(std::istream& is, Fn fn) {
  std::uint64_t records = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    io::JsonValue record = io::parse_json(line);
    if (records++ == 0 &&
        (record.string_or("type", "") != "log_header" ||
         record.string_or("schema", "") != obs::EventLog::kSchema)) {
      throw InvalidArgumentError(
          "not a mcs.events.v1 log (missing log_header record)");
    }
    fn(record);
  }
  if (records == 0) throw InvalidArgumentError("event log is empty");
  return records;
}

}  // namespace

ReplayReport replay_run(std::istream& events_jsonl) {
  // Only the two bracketing records are kept; every other line is still
  // parsed, so a malformed one anywhere fails the replay.
  std::optional<io::JsonValue> started;
  std::optional<io::JsonValue> finished;
  bool repeated = false;
  const std::uint64_t records =
      for_each_record(events_jsonl, [&](io::JsonValue& record) {
        const std::string type = record.string_or("type", "");
        if (type == "run_started") {
          repeated = repeated || started.has_value();
          started = std::move(record);
        } else if (type == "run_finished") {
          finished = std::move(record);
        }
      });
  if (repeated) {
    throw InvalidArgumentError(
        "replay expects exactly one recorded run per log");
  }
  if (!started || !finished) {
    throw InvalidArgumentError(
        "log holds no complete run (record it with mcs_cli run "
        "--events-out)");
  }

  // Older recordings also carry a "batch" member (the batch size of a
  // since-removed mechanism); it is ignored.
  RunSpec spec;
  spec.mechanism = started->at("mechanism").as_string();
  spec.reserve = started->at("reserve").as_number();
  spec.profitable_only = started->at("profitable_only").as_bool();

  std::istringstream scenario_text(started->at("scenario").as_string());
  const model::Scenario scenario = model::read_scenario(scenario_text);
  const model::BidProfile bids = decode_bids(started->at("bids").as_string());

  ReplayReport report;
  report.mechanism = spec.mechanism;
  report.events = records;
  report.recorded = finished->at("outcome").as_string();
  {
    // The oracle re-run must not append to any installed log.
    const obs::ScopedEventLog suppress(nullptr);
    report.reproduced = encode_outcome(make_mechanism(spec)->run(scenario, bids));
  }
  report.clean = report.recorded == report.reproduced;
  if (!report.clean) {
    std::size_t at = 0;
    while (at < report.recorded.size() && at < report.reproduced.size() &&
           report.recorded[at] == report.reproduced[at]) {
      ++at;
    }
    report.diff = "outcomes diverge at byte " + std::to_string(at) +
                  ": recorded \"" + report.recorded + "\" vs reproduced \"" +
                  report.reproduced + "\"";
  }
  return report;
}

// ------------------------------------------------------- explain_phone

std::string explain_phone(std::istream& events_jsonl, int phone) {
  std::ostringstream out;
  bool mentioned = false;
  bool won = false;

  // Narrates each record as it is read.
  (void)for_each_record(events_jsonl, [&](const io::JsonValue& record) {
    const std::string type = record.string_or("type", "");
    const std::int64_t record_phone = record.int_or("phone", -1);
    const std::int64_t slot = record.int_or("slot", -1);
    const std::int64_t task = record.int_or("task", -1);

    if (type == "run_started") {
      out << "phone " << phone << " in a '"
          << record.string_or("mechanism", "?") << "' run ("
          << record.int_or("phones", 0) << " phones, "
          << record.int_or("tasks", 0) << " tasks, "
          << record.int_or("slots", 0) << " slots)\n";
      return;
    }
    if (type == "slot_pool") {
      if (const io::JsonValue* pool = record.find("pool")) {
        const auto& ids = pool->as_array();
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (ids[k].as_int() != phone) continue;
          out << "slot " << slot << ": candidate " << (k + 1) << " of "
              << ids.size() << " in the pool (cheapest first)\n";
          mentioned = true;
          break;
        }
      }
      return;
    }
    if (record_phone != phone) return;
    mentioned = true;

    if (type == "bid_admitted") {
      out << "slot " << slot << ": bid " << record.string_or("bid", "?")
          << " admitted, departs slot " << record.int_or("departs", -1)
          << '\n';
    } else if (type == "bid_rejected") {
      out << "slot " << slot << ": bid " << record.string_or("bid", "?")
          << " REJECTED (" << record.string_or("reason", "?") << ", reserve "
          << record.string_or("reserve", "?") << ")\n";
    } else if (type == "task_assigned") {
      won = true;
      out << "slot " << slot << ": WON task " << task << " at bid "
          << record.string_or("bid", "?") << " (task value "
          << record.string_or("task_value", "?") << ")";
      if (record.find("runner_up_phone") != nullptr) {
        out << "; runner-up phone " << record.int_or("runner_up_phone", -1)
            << " at " << record.string_or("runner_up_bid", "?");
      }
      out << '\n';
    } else if (type == "winner_selected") {
      won = true;
      out << "task " << task << " (slot " << slot << "): SELECTED with weight "
          << record.string_or("weight", "?");
      if (record.find("runner_up_phone") != nullptr) {
        out << "; runner-up phone " << record.int_or("runner_up_phone", -1)
            << " at weight " << record.string_or("runner_up_weight", "?");
      }
      out << '\n';
    } else if (type == "payment_certificate") {
      narrate_payment_certificate(out, record);
    } else if (type == "payment_derivation") {
      out << "paid " << record.string_or("payment", "?") << " by rule "
          << record.string_or("rule", "?");
      if (const io::JsonValue* setter = record.find("set_by_phone")) {
        out << "; level set by rival phone " << setter->as_int();
        if (record.find("set_in_slot") != nullptr) {
          out << " in slot " << record.int_or("set_in_slot", -1);
        }
      }
      if (const io::JsonValue* welfare = record.find("welfare_all")) {
        out << "; welfare " << welfare->as_string() << " vs "
            << record.string_or("welfare_without", "?") << " without the phone";
      }
      if (const io::JsonValue* scarce = record.find("scarce_applied");
          scarce != nullptr && scarce->as_bool()) {
        out << "; scarce-supply cap " << record.string_or("scarce_cap", "?")
            << " applied";
      }
      out << " (own bid " << record.string_or("own_bid", "?") << ")\n";
    }
  });

  if (!mentioned) {
    out << "phone " << phone << " does not appear in this log\n";
  } else {
    out << "verdict: phone " << phone << (won ? " won" : " did not win")
        << '\n';
  }
  return out.str();
}

void narrate_payment_certificate(std::ostream& out,
                                 const io::JsonValue& record) {
  const std::string verdict = record.string_or("verdict", "?");
  out << "payment certificate " << verdict << ": paid "
      << record.string_or("paid", "?");
  if (verdict == "ok") out << " is the critical bid";
  if (record.find("critical") != nullptr) {
    out << ", but the critical bid is " << record.string_or("critical", "?");
  }
  const char* separator = "; ";
  for (const auto& [fork, label] :
       {std::pair{"claim", "its claim "}, std::pair{"above", ""},
        std::pair{"below", ""}, std::pair{"upper_bound", "the probe bound "}}) {
    if (const io::JsonValue* won = record.find(std::string(fork) + "_won")) {
      out << separator << (won->as_bool() ? "wins" : "loses") << " at "
          << label << record.string_or(fork, "?");
      separator = ", ";
    }
  }
  out << '\n';
}

}  // namespace mcs::analysis
