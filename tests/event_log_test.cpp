// Flight-recorder tests: JSONL golden stability, ring-sink bounds, the
// allocation-free disabled path, the payment_certificate record of each
// audit verdict, deterministic replay (clean + tamper detection), the
// per-bidder explain narrative on the paper's worked example and on an
// older log, and the transcript/event-log payment agreement property.
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/flight.hpp"
#include "common/error.hpp"
#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/online_greedy.hpp"
#include "io/json_parse.hpp"
#include "model/paper_examples.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"
#include "support/alloc_counter.hpp"
#include "support/factual_engine.hpp"
#include "support/generators.hpp"
#include "support/served_round.hpp"

namespace mcs {
namespace {

/// Attribute lookup helper; nullptr when absent.
const obs::Event::Value* attr(const obs::Event& event, std::string_view key) {
  for (const auto& [name, value] : event.attrs) {
    if (name == key) return &value;
  }
  return nullptr;
}

Money attr_money(const obs::Event& event, std::string_view key) {
  const obs::Event::Value* value = attr(event, key);
  EXPECT_NE(value, nullptr) << "missing attr " << key;
  return value != nullptr ? std::get<Money>(*value) : Money{};
}

// ------------------------------------------------------------- goldens

TEST(EventLogGolden, JsonlSerializationIsByteStable) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);

  obs::Event assigned("task_assigned");
  assigned.slot = 2;
  assigned.phone = 1;
  assigned.task = 0;
  assigned.with("bid", Money::from_units(3)).with("profitable", true);
  log.append(std::move(assigned));

  obs::Event pool("slot_pool");
  pool.slot = 1;
  pool.with("pool", std::vector<std::int64_t>{2, 0, 1})
      .with("mean_cost", 2.5)
      .with("note", std::string("a\nb"))
      .with("count", std::int64_t{3});
  log.append(std::move(pool));

  EXPECT_EQ(os.str(),
            "{\"seq\":0,\"type\":\"log_header\",\"schema\":\"mcs.events.v1\"}\n"
            "{\"seq\":1,\"type\":\"task_assigned\",\"slot\":2,\"phone\":1,"
            "\"task\":0,\"bid\":\"3\",\"profitable\":true}\n"
            "{\"seq\":2,\"type\":\"slot_pool\",\"slot\":1,\"pool\":[2,0,1],"
            "\"mean_cost\":2.5,\"note\":\"a\\nb\",\"count\":3}\n");
  EXPECT_EQ(log.count(), 3u);
}

TEST(RingEventSink, KeepsMostRecentEventsOldestFirst) {
  obs::RingEventSink ring(3);
  obs::EventLog log(&ring);  // header is event 0
  for (int i = 0; i < 4; ++i) {
    log.append(obs::Event("e" + std::to_string(i)));
  }
  EXPECT_EQ(ring.total_appended(), 5u);
  const std::vector<obs::Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, "e1");
  EXPECT_EQ(events[1].type, "e2");
  EXPECT_EQ(events[2].type, "e3");
}

// ------------------------------------------------------- disabled path

TEST(EventLogDisabled, NoAllocationsAndFactoryNeverRuns) {
  ASSERT_EQ(obs::current_event_log(), nullptr);
  bool factory_ran = false;
  const std::uint64_t before = test::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    obs::log_event([&] {
      factory_ran = true;
      return obs::Event("expensive")
          .with("key", std::string("a string long enough to force a heap "
                                   "allocation either way"));
    });
  }
  const std::uint64_t after = test::heap_allocations();
  EXPECT_EQ(after, before) << "disabled log_event must not allocate";
  EXPECT_FALSE(factory_ran);
}

TEST(EventLogDisabled, SuppressionScopeNestsAndRestores) {
  obs::RingEventSink ring(8);
  obs::EventLog log(&ring);
  const obs::ScopedEventLog install(&log);
  obs::log_event([] { return obs::Event("outer"); });
  {
    const obs::ScopedEventLog suppress(nullptr);
    EXPECT_EQ(obs::current_event_log(), nullptr);
    obs::log_event([] { return obs::Event("hidden"); });
  }
  EXPECT_EQ(obs::current_event_log(), &log);
  obs::log_event([] { return obs::Event("outer2"); });
  const std::vector<obs::Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);  // header + outer + outer2
  EXPECT_EQ(events[1].type, "outer");
  EXPECT_EQ(events[2].type, "outer2");
}

// ------------------------------------------------ payment certificates

/// What one audit returned, and the one record it wrote.
struct Certified {
  auction::PaymentAudit audit;
  obs::Event record;
};

Certified certify(const auction::CounterfactualEngine& engine, PhoneId phone,
                  Money paid) {
  obs::RingEventSink ring(8);
  obs::EventLog log(&ring);
  Certified certified;
  {
    const obs::ScopedEventLog install(&log);
    certified.audit = auction::audit_winner_payment(engine, phone, paid);
  }
  // Header plus the certificate: the forks' own runs record nothing.
  const std::vector<obs::Event> events = ring.events();
  EXPECT_EQ(events.size(), 2u);
  if (events.size() == 2) certified.record = events[1];
  EXPECT_EQ(certified.record.type, "payment_certificate");
  EXPECT_EQ(certified.record.phone, phone.value());
  EXPECT_EQ(attr_money(certified.record, "paid"), paid);
  // The record's verdict and critical value are the returned audit's.
  const obs::Event::Value* verdict = attr(certified.record, "verdict");
  EXPECT_NE(verdict, nullptr);
  if (verdict != nullptr) {
    EXPECT_EQ(std::get<std::string>(*verdict),
              auction::to_string(certified.audit.verdict));
  }
  if (certified.audit.critical) {
    EXPECT_EQ(attr_money(certified.record, "critical"),
              *certified.audit.critical);
  } else {
    EXPECT_EQ(attr(certified.record, "critical"), nullptr);
  }
  return certified;
}

/// The certificate's forks as "name=cost:won" in record order.
std::vector<std::string> forks_of(const obs::Event& record) {
  std::vector<std::string> forks;
  for (const auto& [name, value] : record.attrs) {
    const obs::Event::Value* won = attr(record, name + "_won");
    if (won == nullptr) continue;
    forks.push_back(name + "=" + std::get<Money>(value).to_string() + ":" +
                    (std::get<bool>(*won) ? "wins" : "loses"));
  }
  return forks;
}

TEST(PaymentCertificateEvents, RecordMatchesTheAuditForEachVerdict) {
  using auction::PaymentAuditVerdict;
  // Fig. 4: Smartphone 1 (phone 0, claim 3) wins and is paid 9.
  const model::Scenario fig4 = model::fig4_scenario();
  const model::BidProfile bids = fig4.truthful_bids();
  const auction::CounterfactualEngine engine =
      test_support::factual_engine(fig4, bids);
  const PhoneId phone{0};

  const Certified ok = certify(engine, phone, Money::from_units(9));
  EXPECT_EQ(ok.audit.verdict, PaymentAuditVerdict::kOk);
  EXPECT_EQ(forks_of(ok.record),
            (std::vector<std::string>{"claim=3:wins", "above=9.000001:loses",
                                      "below=8.999998:wins"}));

  const Certified overpaid = certify(engine, phone, Money::from_units(10));
  EXPECT_EQ(overpaid.audit.verdict, PaymentAuditVerdict::kPaymentNotCritical);
  EXPECT_EQ(overpaid.audit.critical, Money::from_micros(9'000'001));
  EXPECT_EQ(forks_of(overpaid.record),
            (std::vector<std::string>{"claim=3:wins", "above=10.000001:loses",
                                      "below=9.999998:loses"}));

  // Phone 0's task handed to a loser whose window holds its slot: the
  // loser's fork from that allocation loses at its own claim.
  const auction::Outcome outcome = auction::OnlineGreedyMechanism().run(fig4, bids);
  const Slot won_in =
      fig4.tasks[static_cast<std::size_t>(
                     outcome.allocation.task_for(phone)->value())]
          .slot;
  std::optional<PhoneId> loser;
  for (int p = 0; p < fig4.phone_count() && !loser; ++p) {
    if (!outcome.allocation.is_winner(PhoneId{p}) &&
        bids[static_cast<std::size_t>(p)].window.contains(won_in)) {
      loser = PhoneId{p};
    }
  }
  ASSERT_TRUE(loser.has_value()) << "Fig. 4 must offer a swap";
  auction::Allocation swapped(fig4.task_count(), fig4.phone_count());
  for (const model::Task& task : fig4.tasks) {
    if (const std::optional<PhoneId> owner =
            outcome.allocation.phone_for(task.id)) {
      swapped.assign(task.id, *owner == phone ? *loser : *owner);
    }
  }
  const auction::CounterfactualEngine forged(fig4, bids, {}, swapped);
  const Certified loses = certify(forged, *loser, Money::from_units(9));
  EXPECT_EQ(loses.audit.verdict, PaymentAuditVerdict::kLosesAtClaim);
  ASSERT_EQ(forks_of(loses.record).size(), 1u);
  EXPECT_EQ(forks_of(loses.record)[0].find("claim="), 0u);

  // Two phones, two tasks: without phone 0, slot 2's task goes unserved,
  // so phone 0 wins at any claim.
  model::ScenarioBuilder builder(2);
  builder.value(10);
  builder.phone(1, 2, 1).phone(1, 2, 2);
  builder.task(1).task(2);
  const model::Scenario scarce = builder.build();
  const model::BidProfile scarce_bids = scarce.truthful_bids();
  const auction::Outcome scarce_outcome =
      auction::OnlineGreedyMechanism().run(scarce, scarce_bids);
  const Certified unbounded =
      certify(test_support::factual_engine(scarce, scarce_bids), phone,
              scarce_outcome.payments[0]);
  EXPECT_EQ(unbounded.audit.verdict, PaymentAuditVerdict::kUnboundedSkipped);
  const std::vector<std::string> scarce_forks = forks_of(unbounded.record);
  ASSERT_EQ(scarce_forks.size(), 3u);
  EXPECT_EQ(scarce_forks[0], "claim=1:wins");
  EXPECT_NE(scarce_forks[1].find(":wins"), std::string::npos);
  EXPECT_EQ(scarce_forks[2].find("upper_bound="), 0u);
  EXPECT_NE(scarce_forks[2].find(":wins"), std::string::npos);
}

// ------------------------------------------------------------- replay

analysis::ReplayReport record_and_replay(const analysis::RunSpec& spec,
                                         const model::Scenario& scenario) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, spec, scenario, scenario.truthful_bids());
  std::istringstream is(os.str());
  return analysis::replay_run(is);
}

TEST(Replay, OnlineRunReproducesByteForByte) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) {
    const model::Scenario scenario = test_support::windowed(rng);
    const analysis::ReplayReport report =
        record_and_replay(analysis::RunSpec{}, scenario);
    EXPECT_TRUE(report.clean) << report.diff;
    EXPECT_EQ(report.mechanism, "online");
    EXPECT_EQ(report.recorded, report.reproduced);
  }
}

TEST(Replay, OfflineRunReproducesByteForByte) {
  Rng rng(2025);
  analysis::RunSpec spec;
  spec.mechanism = "offline";
  for (int i = 0; i < 10; ++i) {
    const model::Scenario scenario = test_support::windowed(rng);
    const analysis::ReplayReport report = record_and_replay(spec, scenario);
    EXPECT_TRUE(report.clean) << report.diff;
  }
}

TEST(Replay, ConfiguredOnlineRunRoundTrips) {
  analysis::RunSpec spec;
  spec.reserve = 8.0;
  spec.profitable_only = true;
  const analysis::ReplayReport report =
      record_and_replay(spec, model::fig4_scenario());
  EXPECT_TRUE(report.clean) << report.diff;
}

TEST(Replay, DetectsTamperedOutcome) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, analysis::RunSpec{}, model::fig4_scenario(),
                             model::fig4_scenario().truthful_bids());
  std::string text = os.str();
  // Corrupt the recorded outcome: the paper example pays phone 0 exactly
  // 9; claim it was 8.
  const std::size_t at = text.find("pay 9");
  ASSERT_NE(at, std::string::npos);
  text[at + 4] = '8';
  std::istringstream is(text);
  const analysis::ReplayReport report = analysis::replay_run(is);
  EXPECT_FALSE(report.clean);
  EXPECT_NE(report.diff.find("diverge"), std::string::npos);
}

/// The bracketing records of a run recorded before batched matching was
/// removed, whose run_started still carries a "batch" member (the
/// decision records between them are left out: replay reads only these).
std::string legacy_log(const std::string& mechanism) {
  return R"({"seq":0,"type":"log_header","schema":"mcs.events.v1"})"
         "\n"
         R"({"seq":1,"type":"run_started","mechanism":")" +
         mechanism +
         R"(","reserve":0,"profitable_only":false,"batch":5,"phones":9,)"
         R"("tasks":4,"slots":4,"scenario":"mcs-scenario v1\nslots 4\n)"
         R"(value 25\nphone 1 3 9\nphone 2 2 7\nphone 2 4 2\n)"
         R"(phone 2 4 16\nphone 2 2 2\nphone 3 4 19\nphone 3 4 2\n)"
         R"(phone 3 4 17\nphone 4 4 5\ntask 3\ntask 3\ntask 3\ntask 4\n",)"
         R"("bids":"1 3 9;2 2 7;2 4 2;2 4 16;2 2 2;3 4 19;3 4 2;3 4 17;)"
         R"(4 4 5;"})"
         "\n"
         R"({"seq":23,"type":"run_finished","outcome":"alloc 2 6 0 8 pay )"
         R"(16 0 16 0 0 0 16 0 16","winners":4,"total_payment":"64"})"
         "\n";
}

TEST(Replay, OlderRecordingWithABatchFieldStillReplays) {
  std::istringstream is(legacy_log("online"));
  const analysis::ReplayReport report = analysis::replay_run(is);
  EXPECT_TRUE(report.clean) << report.diff;
  EXPECT_EQ(report.mechanism, "online");
  EXPECT_EQ(report.reproduced, "alloc 2 6 0 8 pay 16 0 16 0 0 0 16 0 16");
}

TEST(Replay, RecordedBatchedMechanismIsUnknown) {
  std::istringstream is(legacy_log("batched"));
  try {
    (void)analysis::replay_run(is);
    ADD_FAILURE() << "a batched recording replayed";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown mechanism 'batched' (known: online, offline, "
              "second-price)");
  }
}

TEST(Replay, MalformedLineAfterRunFinishedStillFails) {
  // Replay keeps only the bracketing records, but it still parses every
  // line, also past run_finished, and fails with the parser's own text.
  const std::string malformed = R"({"seq":24,"type":)";
  std::string parser_error;
  try {
    (void)io::parse_json(malformed);
  } catch (const InvalidArgumentError& e) {
    parser_error = e.what();
  }
  ASSERT_FALSE(parser_error.empty());
  std::istringstream is(legacy_log("online") + malformed + "\n");
  try {
    (void)analysis::replay_run(is);
    ADD_FAILURE() << "a log with a malformed last line replayed";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(std::string(e.what()), parser_error);
  }
}

TEST(Replay, RejectsForeignStreams) {
  std::istringstream empty("");
  EXPECT_THROW((void)analysis::replay_run(empty), InvalidArgumentError);
  std::istringstream foreign("{\"seq\":0,\"type\":\"something_else\"}\n");
  EXPECT_THROW((void)analysis::replay_run(foreign), InvalidArgumentError);
}

// ------------------------------------------------------------- explain

TEST(Explain, NamesTheCriticalBidOfTheWorkedExampleWinner) {
  const model::Scenario scenario = model::fig4_scenario();
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  const auction::Outcome outcome = analysis::record_run(
      log, analysis::RunSpec{}, scenario, scenario.truthful_bids());
  // Paper Section V-B: phone 0 (Smartphone 1) wins and is paid exactly 9.
  ASSERT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
  ASSERT_EQ(outcome.payments[0], Money::from_units(9));

  std::istringstream is(os.str());
  const std::string story = analysis::explain_phone(is, 0);
  // The certificate names the payment as the critical bid: the phone
  // loses one micro above it and wins two micros below it.
  EXPECT_NE(story.find("paid 9 by rule"), std::string::npos) << story;
  EXPECT_NE(story.find("payment certificate ok: paid 9 is the critical bid; "
                       "wins at its claim 3, loses at 9.000001, wins at "
                       "8.999998\n"),
            std::string::npos)
      << story;
  EXPECT_NE(story.find("verdict: phone 0 won"), std::string::npos) << story;
}

TEST(Explain, OlderLogWithBisectionRecordsReplaysAndExplainsWithoutThem) {
  // A log as recorded before certificates: each winner's bisection trail
  // (critical_probe records and a critical_found summary, bounded or not)
  // between its decision records and run_finished.
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, analysis::RunSpec{}, model::fig4_scenario(),
                             model::fig4_scenario().truthful_bids());
  std::istringstream recorded(os.str());
  std::string older;
  std::string line;
  while (std::getline(recorded, line)) {
    if (line.find("\"type\":\"payment_certificate\"") != std::string::npos) {
      continue;
    }
    if (line.find("\"type\":\"run_finished\"") != std::string::npos) {
      older +=
          R"({"seq":90,"type":"critical_probe","phone":0,"probe":"0",)"
          R"("won":true,"lo":"0","hi":"45"})"
          "\n"
          R"({"seq":91,"type":"critical_probe","phone":0,"probe":"22.5",)"
          R"("won":false,"lo":"0","hi":"22.5"})"
          "\n"
          R"({"seq":92,"type":"critical_found","phone":0,)"
          R"("critical_bid":"9.000001","lo":"9","hi":"9.000001","probes":29})"
          "\n"
          R"({"seq":93,"type":"critical_found","phone":1,"unbounded":true,)"
          R"("upper_bound":"45","probes":2})"
          "\n";
    }
    older += line + "\n";
  }

  std::istringstream replayed(older);
  const analysis::ReplayReport report = analysis::replay_run(replayed);
  EXPECT_TRUE(report.clean) << report.diff;

  std::istringstream explained(older);
  const std::string story = analysis::explain_phone(explained, 0);
  EXPECT_NE(story.find("paid 9 by rule"), std::string::npos) << story;
  EXPECT_NE(story.find("verdict: phone 0 won"), std::string::npos) << story;
  EXPECT_EQ(story.find("probe"), std::string::npos) << story;
  EXPECT_EQ(story.find("critical"), std::string::npos) << story;
  EXPECT_EQ(story.find("certificate"), std::string::npos) << story;
}

TEST(Explain, ReportsAbsentPhones) {
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  obs::EventLog log(&sink);
  (void)analysis::record_run(log, analysis::RunSpec{}, model::fig4_scenario(),
                             model::fig4_scenario().truthful_bids());
  std::istringstream is(os.str());
  const std::string story = analysis::explain_phone(is, 99);
  EXPECT_NE(story.find("phone 99 does not appear"), std::string::npos);
}

// --------------------------- transcript / event-log payment agreement

TEST(TranscriptAgreement, EveryPaymentIssuedHasADerivationRecord) {
  Rng rng(77);
  for (int i = 0; i < 25; ++i) {
    const model::Scenario scenario = test_support::windowed(rng);
    const model::BidProfile bids = scenario.truthful_bids();

    obs::RingEventSink ring(65536);
    obs::EventLog log(&ring);
    serve::RoundOutcome served;
    {
      const obs::ScopedEventLog install(&log);
      served = test_support::serve_round(scenario, bids);
    }
    const std::vector<obs::Event> events = ring.events();
    ASSERT_EQ(ring.total_appended(), events.size()) << "ring overflowed";

    // Every winner the served round paid has exactly one derivation record,
    // in the slot it won and with the amount the outcome carries.
    std::size_t records = 0;
    for (const obs::Event& event : events) {
      if (event.type == "payment_derivation") ++records;
    }
    const std::vector<PhoneId> winners = served.outcome.allocation.winners();
    EXPECT_EQ(records, winners.size());
    for (const PhoneId winner : winners) {
      std::int32_t won_in = -1;
      for (const obs::Event& event : events) {
        if (event.type == "task_assigned" && event.phone == winner.value()) {
          won_in = event.slot;
        }
      }
      bool matched = false;
      for (const obs::Event& event : events) {
        if (event.type != "payment_derivation") continue;
        if (event.phone != winner.value()) continue;
        EXPECT_EQ(event.slot, won_in) << "phone " << winner.value();
        EXPECT_EQ(attr_money(event, "payment"),
                  served.outcome.payments[static_cast<std::size_t>(
                      winner.value())]);
        matched = true;
        break;
      }
      EXPECT_TRUE(matched) << "no payment_derivation record for phone "
                           << winner.value();
    }
  }
}

// ------------------------------------------------------ simulator events

TEST(SimulatorEvents, RepetitionsRecordNoDecisionEvents) {
  sim::StandardMechanisms mechanisms;
  sim::SimulationConfig config;
  config.repetitions = 10;
  config.workload.num_slots = 4;
  config.workload.phone_arrival_rate = 2.0;
  config.workload.task_arrival_rate = 1.0;

  obs::RingEventSink ring(1024);
  obs::EventLog log(&ring);
  {
    const obs::ScopedEventLog install(&log);
    (void)sim::simulate(config, mechanisms.pointers());
  }
  EXPECT_EQ(log.count(), 1u);  // header only
}

}  // namespace
}  // namespace mcs
