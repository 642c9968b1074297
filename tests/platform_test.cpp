// Tests for the incremental platform: protocol-level behavior (message
// ordering, payment timing at reported departure), and the headline
// equivalence -- the slot-by-slot platform and the batch
// OnlineGreedyMechanism must produce identical allocations and payments on
// the same inputs, across config variants and randomized rounds.
#include "platform/round_driver.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/truthfulness.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"

namespace mcs::platform {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// -------------------------------------------------------------- protocol

TEST(Platform, Fig4TranscriptHighlights) {
  const model::Scenario s = model::fig4_scenario();
  const RoundResult result = run_round(s, s.truthful_bids());

  // One announcement per task, one accepted bid per phone.
  EXPECT_EQ(result.events_of(EventKind::kTaskAnnounced).size(), 5u);
  EXPECT_EQ(result.events_of(EventKind::kBidSubmitted).size(), 7u);
  // Five assignments, each followed by a sensing report.
  EXPECT_EQ(result.events_of(EventKind::kTaskAssigned).size(), 5u);
  EXPECT_EQ(result.events_of(EventKind::kSensingReported).size(), 5u);
  // Five winners paid, two losers depart unpaid.
  EXPECT_EQ(result.events_of(EventKind::kPaymentIssued).size(), 5u);
  EXPECT_EQ(result.events_of(EventKind::kDeparted).size(), 2u);
  EXPECT_TRUE(result.events_of(EventKind::kTaskUnserved).empty());
}

TEST(Platform, PaymentsLandInTheReportedDepartureSlot) {
  // Section V-C: "each smartphone receives its payment in its reported
  // departure slot."
  const model::Scenario s = model::fig4_scenario();
  const RoundResult result = run_round(s, s.truthful_bids());
  for (const RoundEvent& event : result.events_of(EventKind::kPaymentIssued)) {
    const model::TrueProfile& profile = s.phone(event.agent);
    EXPECT_EQ(event.slot, profile.active.end()) << "phone " << event.agent;
  }
  // Phone 0 (wins slot 2, departs slot 5) is the paper's worked example.
  const auto payments = result.events_of(EventKind::kPaymentIssued);
  bool found = false;
  for (const RoundEvent& event : payments) {
    if (event.agent == AgentId{0}) {
      EXPECT_EQ(event.slot, Slot{5});
      EXPECT_EQ(event.amount, mu(9));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Platform, BidSubmissionRules) {
  OnlinePlatform platform(5, mu(20));
  // Arrival must match the current slot.
  EXPECT_THROW(platform.submit_bid(
                   AgentId{0}, model::Bid{SlotInterval::of(2, 4), mu(3)}),
               ContractViolation);
  EXPECT_TRUE(platform.submit_bid(
      AgentId{0}, model::Bid{SlotInterval::of(1, 4), mu(3)}));
  // One bid per agent per round.
  EXPECT_THROW(platform.submit_bid(
                   AgentId{0}, model::Bid{SlotInterval::of(1, 2), mu(5)}),
               ContractViolation);
}

TEST(Platform, ReserveRejectsAtTheDoor) {
  auction::OnlineGreedyConfig config;
  config.reserve_price = mu(10);
  OnlinePlatform platform(3, mu(20), config);
  EXPECT_FALSE(platform.submit_bid(
      AgentId{0}, model::Bid{SlotInterval::of(1, 3), mu(11)}));
  EXPECT_TRUE(platform.submit_bid(
      AgentId{1}, model::Bid{SlotInterval::of(1, 3), mu(10)}));
  // A rejected bid still uses up the agent's one bid for the round.
  EXPECT_TRUE(platform.has_bid(AgentId{0}));
  EXPECT_FALSE(platform.has_bid(AgentId{2}));
  EXPECT_THROW(platform.submit_bid(
                   AgentId{0}, model::Bid{SlotInterval::of(1, 3), mu(9)}),
               ContractViolation);
}

TEST(Platform, TaskIdsMustBeDense) {
  OnlinePlatform platform(3, mu(20));
  platform.announce_task(TaskId{0});
  EXPECT_THROW(platform.announce_task(TaskId{2}), ContractViolation);
}

TEST(Platform, FinishedRoundRejectsFurtherInput) {
  OnlinePlatform platform(1, mu(20));
  platform.advance_slot();
  EXPECT_TRUE(platform.finished());
  EXPECT_THROW(platform.announce_task(TaskId{0}), ContractViolation);
  EXPECT_THROW(platform.advance_slot(), ContractViolation);
}

TEST(Platform, UnservedTaskExpires) {
  OnlinePlatform platform(2, mu(20));
  platform.announce_task(TaskId{0});
  const SlotReport report = platform.advance_slot();
  ASSERT_EQ(report.unserved_tasks.size(), 1u);
  EXPECT_EQ(report.unserved_tasks[0], TaskId{0});
  EXPECT_TRUE(report.assignments.empty());
}

TEST(Platform, TotalPaidAccumulates) {
  const model::Scenario s = model::fig4_scenario();
  OnlinePlatform platform(5, s.task_value);
  std::size_t cursor = 0;
  Money total;
  for (Slot::rep_type t = 1; t <= 5; ++t) {
    while (cursor < s.tasks.size() && s.tasks[cursor].slot.value() == t) {
      platform.announce_task(s.tasks[cursor].id);
      ++cursor;
    }
    for (int i = 0; i < s.phone_count(); ++i) {
      if (s.phone(PhoneId{i}).active.begin().value() == t) {
        platform.submit_bid(AgentId{i},
                            model::truthful_bid(s.phone(PhoneId{i})));
      }
    }
    for (const auto& [agent, payment] : platform.advance_slot().payments) {
      total += payment;
    }
  }
  EXPECT_EQ(platform.total_paid(), total);
  EXPECT_EQ(total, mu(50));  // the hand-computed Fig. 4 total
}

// ------------------------------------------------------------ equivalence

using EquivalenceParam = std::tuple<std::uint64_t, int>;  // (seed, config id)

class PlatformEquivalence : public ::testing::TestWithParam<EquivalenceParam> {
 protected:
  static auction::OnlineGreedyConfig config_for(int id) {
    auction::OnlineGreedyConfig config;
    switch (id) {
      case 0:
        break;  // paper-faithful
      case 1:
        config.allocate_only_profitable = true;
        break;
      case 2:
        config.reserve_price = Money::from_units(20);
        break;
      default:
        config.allocate_only_profitable = true;
        config.reserve_price = Money::from_units(20);
        config.scarce_payment =
            auction::OnlineGreedyConfig::ScarcePayment::kOwnBid;
    }
    return config;
  }
};

TEST_P(PlatformEquivalence, MatchesBatchMechanismExactly) {
  const auto [seed, config_id] = GetParam();
  const auction::OnlineGreedyConfig config = config_for(config_id);

  Rng rng(seed);
  model::WorkloadConfig workload;
  workload.num_slots = 12;
  workload.phone_arrival_rate = 3.0;
  workload.task_arrival_rate = 2.0;
  workload.mean_cost = 15.0;
  workload.task_value = Money::from_units(30);
  const model::Scenario scenario = model::generate_scenario(workload, rng);
  const model::BidProfile bids = scenario.truthful_bids();

  const auction::Outcome batch =
      auction::OnlineGreedyMechanism(config).run(scenario, bids);
  const RoundResult incremental = run_round(scenario, bids, config);

  for (int t = 0; t < scenario.task_count(); ++t) {
    ASSERT_EQ(incremental.outcome.allocation.phone_for(TaskId{t}),
              batch.allocation.phone_for(TaskId{t}))
        << "task " << t << " config " << config_id;
  }
  ASSERT_EQ(incremental.outcome.payments, batch.payments)
      << "config " << config_id;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndConfigs, PlatformEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(9000, 9010),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Platform, EquivalenceOnWeightedTasks) {
  Rng rng(88);
  model::ScenarioBuilder builder(6);
  builder.value(25);
  for (int i = 0; i < 8; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 6));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 6));
    builder.phone(a, d, rng.uniform_int(1, 20));
  }
  for (int k = 0; k < 6; ++k) {
    builder.valued_task(static_cast<Slot::rep_type>(rng.uniform_int(1, 6)),
                        rng.uniform_int(10, 60));
  }
  const model::Scenario scenario = builder.build();
  const model::BidProfile bids = scenario.truthful_bids();

  const auction::Outcome batch =
      auction::OnlineGreedyMechanism{}.run(scenario, bids);
  const RoundResult incremental = run_round(scenario, bids);
  EXPECT_EQ(incremental.outcome.payments, batch.payments);
  for (int t = 0; t < scenario.task_count(); ++t) {
    EXPECT_EQ(incremental.outcome.allocation.phone_for(TaskId{t}),
              batch.allocation.phone_for(TaskId{t}));
  }
}

TEST(Platform, EquivalenceUnderMisreports) {
  // The equivalence must hold on arbitrary bid profiles, not just truthful
  // ones (the platform never sees true profiles anyway).
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = model::with_bid(
      s.truthful_bids(), PhoneId{0}, model::fig5_delayed_bid_phone1());
  const auction::Outcome batch =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const RoundResult incremental = run_round(s, bids);
  EXPECT_EQ(incremental.outcome.payments, batch.payments);
}

TEST(Platform, DeployablePathIsItselfTruthful) {
  // Belt and braces: run the exhaustive deviation audit THROUGH the
  // incremental platform (not the batch mechanism it is equivalent to), by
  // adapting run_round to the Mechanism interface. Catches any future
  // drift between the two implementations at the incentive level.
  class PlatformAdapter final : public auction::Mechanism {
   public:
    [[nodiscard]] auction::Outcome run(
        const model::Scenario& scenario,
        const model::BidProfile& bids) const override {
      return run_round(scenario, bids).outcome;
    }
    [[nodiscard]] std::string name() const override {
      return "online-platform";
    }
  };

  const model::Scenario s = model::fig4_scenario();
  const PlatformAdapter platform_mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(platform_mechanism, s);
  EXPECT_TRUE(report.truthful()) << report.summary();
}

TEST(Platform, EventStreamOrderingWithinSlot) {
  // Within a slot: announcements, then bids, then assignments/reports,
  // then settlements.
  const model::Scenario s = model::fig4_scenario();
  const RoundResult result = run_round(s, s.truthful_bids());
  const auto rank = [](EventKind kind) {
    switch (kind) {
      case EventKind::kTaskAnnounced:
        return 0;
      case EventKind::kBidSubmitted:
        return 1;
      case EventKind::kTaskAssigned:
      case EventKind::kSensingReported:
      case EventKind::kTaskUnserved:
        return 2;
      default:
        return 3;
    }
  };
  for (std::size_t k = 1; k < result.transcript.size(); ++k) {
    const RoundEvent& prev = result.transcript[k - 1];
    const RoundEvent& cur = result.transcript[k];
    ASSERT_LE(prev.slot.value(), cur.slot.value());
    if (prev.slot == cur.slot) {
      ASSERT_LE(rank(prev.kind), rank(cur.kind))
          << prev << " before " << cur;
    }
  }
}

// ---------------------------------------------------- events_of view

TEST(RoundEventView, BorrowsTheTranscriptInsteadOfCopying) {
  const model::Scenario s = model::fig4_scenario();
  const RoundResult result = run_round(s, s.truthful_bids());
  // Every element the view yields lives inside result.transcript -- the
  // view filters in place, it does not materialize a copy.
  const RoundEvent* const first = result.transcript.data();
  const RoundEvent* const last = first + result.transcript.size();
  std::size_t seen = 0;
  for (const RoundEvent& event : result.events_of(EventKind::kPaymentIssued)) {
    EXPECT_GE(&event, first);
    EXPECT_LT(&event, last);
    ++seen;
  }
  EXPECT_EQ(seen, result.events_of(EventKind::kPaymentIssued).size());
}

TEST(RoundEventView, MatchesAManualFilterInOrder) {
  const model::Scenario s = model::fig4_scenario();
  const RoundResult result = run_round(s, s.truthful_bids());
  for (const EventKind kind :
       {EventKind::kTaskAnnounced, EventKind::kBidSubmitted,
        EventKind::kTaskAssigned, EventKind::kTaskUnserved,
        EventKind::kPaymentIssued, EventKind::kDeparted}) {
    std::vector<const RoundEvent*> manual;
    for (const RoundEvent& event : result.transcript) {
      if (event.kind == kind) manual.push_back(&event);
    }
    const RoundEventView view = result.events_of(kind);
    EXPECT_EQ(view.size(), manual.size());
    EXPECT_EQ(view.empty(), manual.empty());
    std::size_t k = 0;
    for (const RoundEvent& event : view) {
      ASSERT_LT(k, manual.size());
      EXPECT_EQ(&event, manual[k]) << "kind mismatch or order broken";
      ++k;
    }
    EXPECT_EQ(k, manual.size());
    if (!manual.empty()) {
      EXPECT_EQ(&view.front(), manual.front());
    }
  }
}

TEST(RoundEventView, EmptyViewIteratesZeroTimes) {
  const RoundResult result;  // empty transcript
  const RoundEventView view = result.events_of(EventKind::kTaskAssigned);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_EQ(view.begin(), view.end());
}

}  // namespace
}  // namespace mcs::platform
