// Tests for the platform as it serves a round: the stream contract a
// serve::RoundMachine enforces (arrival in the current slot, dense task
// ids, one bid per agent, nothing after the last tick), payment timing at
// the reported departure on auction::GreedyCore, and the headline
// equivalence -- a round served event by event and the batch
// OnlineGreedyMechanism must produce identical allocations and payments on
// the same inputs, across config variants and randomized rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "analysis/truthfulness.hpp"
#include "auction/greedy_core.hpp"
#include "auction/online_greedy.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"
#include "serve/event.hpp"
#include "serve/round_machine.hpp"
#include "support/served_round.hpp"

namespace mcs::serve {
namespace {

using test_support::serve_round;

Money mu(std::int64_t units) { return Money::from_units(units); }

model::Bid bid(Slot::rep_type from, Slot::rep_type to, std::int64_t cost) {
  return model::Bid{SlotInterval::of(from, to), mu(cost)};
}

// -------------------------------------------------------------- protocol

TEST(Platform, Fig4TranscriptHighlights) {
  const model::Scenario s = model::fig4_scenario();
  const RoundOutcome served = serve_round(s, s.truthful_bids());

  // One announcement per task, one accepted bid per phone.
  EXPECT_EQ(served.tasks_announced, 5);
  EXPECT_EQ(served.bids_admitted, 7);
  EXPECT_EQ(served.bids_rejected, 0);
  // Every task assigned: five winners, all paid; two losers depart unpaid.
  for (int t = 0; t < s.task_count(); ++t) {
    EXPECT_TRUE(served.outcome.allocation.phone_for(TaskId{t}).has_value())
        << "task " << t;
  }
  EXPECT_EQ(served.outcome.allocation.winners().size(), 5u);
  EXPECT_EQ(std::count_if(served.outcome.payments.begin(),
                          served.outcome.payments.end(),
                          [](Money paid) { return !paid.is_zero(); }),
            5);
  EXPECT_EQ(served.events_consumed,
            1 + 5 + 7 + s.num_slots + 1);  // open, tasks, bids, ticks, close
}

TEST(Platform, PaymentsLandInTheReportedDepartureSlot) {
  // Section V-C: "each smartphone receives its payment in its reported
  // departure slot." A winner shows up in step().departing exactly in
  // that slot, and the core refuses to settle it any earlier.
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  auction::GreedyCore core;
  std::map<int, Slot::rep_type> settled_in;  // phone -> slot it was paid
  std::map<int, Money> paid;
  std::size_t next_task = 0;
  for (Slot::rep_type t = 1; t <= s.num_slots; ++t) {
    for (; next_task < s.tasks.size() && s.tasks[next_task].slot.value() == t;
         ++next_task) {
      core.add_task({s.tasks[next_task].id, s.task_value});
    }
    for (int i = 0; i < s.phone_count(); ++i) {
      const model::Bid& own = bids[static_cast<std::size_t>(i)];
      if (own.window.begin().value() == t) (void)core.admit(i, own);
    }
    const auction::GreedyCore::Step& step = core.step();
    for (const auction::GreedyCore::Handle handle : step.departing) {
      const auction::GreedyCore::Entry& leaving = core.entry(handle);
      EXPECT_EQ(leaving.bid.window.end().value(), t) << "phone " << leaving.id;
      if (leaving.win_slot == 0) continue;
      EXPECT_TRUE(settled_in.emplace(leaving.id, t).second)
          << "phone " << leaving.id << " departs twice";
      paid[leaving.id] = core.settle(handle).payment;
    }
    // Every winner still in the market is not payable yet.
    for (const auction::GreedyCore::Handle handle : core.winners()) {
      const auction::GreedyCore::Entry& won = core.entry(handle);
      if (won.bid.window.end().value() > t) {
        EXPECT_THROW((void)core.settle(handle), ContractViolation)
            << "phone " << won.id << " after slot " << t;
      }
    }
  }
  ASSERT_EQ(settled_in.size(), 5u);
  for (const auto& [phone, slot] : settled_in) {
    EXPECT_EQ(slot, s.phone(PhoneId{phone}).active.end().value())
        << "phone " << phone;
  }
  // Phone 0 (wins slot 2, departs slot 5) is the paper's worked example.
  EXPECT_EQ(settled_in.at(0), 5);
  EXPECT_EQ(paid.at(0), mu(9));
}

TEST(Platform, BidSubmissionRules) {
  RoundMachine machine(round_open(0, 5, mu(20)), {});
  // Arrival must match the current slot.
  EXPECT_THROW(machine.apply(bid_submitted(0, PhoneId{0}, bid(2, 4, 3))),
               InvalidArgumentError);
  EXPECT_FALSE(machine.apply(bid_submitted(0, PhoneId{0}, bid(1, 4, 3))));
  // One bid per agent per round.
  EXPECT_THROW(machine.apply(bid_submitted(0, PhoneId{0}, bid(1, 2, 5))),
               InvalidArgumentError);
  // A reported departure past the horizon.
  EXPECT_THROW(machine.apply(bid_submitted(0, PhoneId{1}, bid(1, 6, 5))),
               InvalidArgumentError);
}

TEST(Platform, ReserveRejectsAtTheDoor) {
  auction::OnlineGreedyConfig config;
  config.reserve_price = mu(10);
  RoundMachine machine(round_open(0, 3, mu(20)), config);
  machine.apply(bid_submitted(0, PhoneId{0}, bid(1, 3, 11)));
  machine.apply(bid_submitted(0, PhoneId{1}, bid(1, 3, 10)));
  // A rejected bid still uses up the agent's one bid for the round.
  EXPECT_THROW(machine.apply(bid_submitted(0, PhoneId{0}, bid(1, 3, 9))),
               InvalidArgumentError);
  machine.apply(task_arrived(0, Slot{1}, TaskId{0}));
  for (Slot::rep_type t = 1; t <= 3; ++t) machine.apply(slot_tick(0, Slot{t}));
  ASSERT_TRUE(machine.apply(round_close(0)));
  const RoundOutcome served = machine.take_outcome();
  EXPECT_EQ(served.bids_rejected, 1);
  EXPECT_EQ(served.bids_admitted, 1);
  EXPECT_EQ(served.outcome.allocation.phone_for(TaskId{0}), PhoneId{1});
}

TEST(Platform, TaskIdsMustBeDense) {
  RoundMachine machine(round_open(0, 3, mu(20)), {});
  EXPECT_THROW(machine.apply(task_arrived(0, Slot{1}, TaskId{1})),
               InvalidArgumentError);
  machine.apply(task_arrived(0, Slot{1}, TaskId{0}));
  EXPECT_THROW(machine.apply(task_arrived(0, Slot{1}, TaskId{2})),
               InvalidArgumentError);
  EXPECT_THROW(machine.apply(task_arrived(0, Slot{1}, TaskId{0})),
               InvalidArgumentError);
}

TEST(Platform, FinishedRoundRejectsFurtherInput) {
  RoundMachine machine(round_open(0, 1, mu(20)), {});
  EXPECT_THROW(machine.apply(round_close(0)), InvalidArgumentError);
  EXPECT_FALSE(machine.apply(slot_tick(0, Slot{1})));
  EXPECT_THROW(machine.apply(task_arrived(0, Slot{1}, TaskId{0})),
               InvalidArgumentError);
  EXPECT_THROW(machine.apply(bid_submitted(0, PhoneId{0}, bid(1, 1, 3))),
               InvalidArgumentError);
  EXPECT_THROW(machine.apply(slot_tick(0, Slot{1})), InvalidArgumentError);
  EXPECT_THROW(machine.apply(slot_tick(0, Slot{2})), InvalidArgumentError);
  EXPECT_TRUE(machine.apply(round_close(0)));
  EXPECT_THROW(machine.apply(slot_tick(0, Slot{2})), InvalidArgumentError);
}

TEST(Platform, UnservedTaskExpires) {
  RoundMachine machine(round_open(0, 2, mu(20)), {}, /*capture=*/true);
  machine.apply(task_arrived(0, Slot{1}, TaskId{0}));
  machine.apply(slot_tick(0, Slot{1}));
  machine.apply(bid_submitted(0, PhoneId{0}, bid(2, 2, 3)));
  machine.apply(slot_tick(0, Slot{2}));
  ASSERT_TRUE(machine.apply(round_close(0)));
  ASSERT_TRUE(machine.capture_complete());
  const CapturedRound captured = machine.take_captured();
  ASSERT_EQ(captured.slots.size(), 2u);
  ASSERT_EQ(captured.slots[0].unserved.size(), 1u);
  EXPECT_EQ(captured.slots[0].unserved[0], TaskId{0});
  EXPECT_TRUE(captured.slots[0].winners.empty());
  // The phone that joins a slot later finds no task waiting.
  EXPECT_TRUE(captured.slots[1].winners.empty());
  const RoundOutcome served = machine.take_outcome();
  EXPECT_FALSE(served.outcome.allocation.phone_for(TaskId{0}).has_value());
  EXPECT_EQ(served.total_paid, Money{});
}

TEST(Platform, TotalPaidAccumulates) {
  const model::Scenario s = model::fig4_scenario();
  const RoundOutcome served = serve_round(s, s.truthful_bids());
  Money total;
  for (const Money payment : served.outcome.payments) total += payment;
  EXPECT_EQ(served.total_paid, total);
  EXPECT_EQ(total, mu(50));  // the hand-computed Fig. 4 total
}

TEST(RoundMachine, RejectsValuesTheBatchScenarioRejects) {
  // Scenario::validate requires nu >= 0 and each task's own value in
  // [0, Money::max()); a served round holds the stream to the same domain.
  EXPECT_THROW(RoundMachine(round_open(0, 2, mu(-7)), {}),
               InvalidArgumentError);
  for (const Money bad : {Money::max(), mu(-7)}) {
    RoundMachine machine(round_open(0, 2, mu(20)), {});
    EXPECT_THROW(machine.apply(task_arrived(0, Slot{1}, TaskId{0}, bad)),
                 InvalidArgumentError)
        << bad;
  }
  RoundMachine machine(round_open(0, 1, Money{}), {});
  machine.apply(task_arrived(0, Slot{1}, TaskId{0}, Money{}));
  machine.apply(task_arrived(
      0, Slot{1}, TaskId{1}, Money::max() - Money::from_micros(1)));
  machine.apply(slot_tick(0, Slot{1}));
  EXPECT_TRUE(machine.apply(round_close(0)));
  EXPECT_EQ(machine.take_outcome().tasks_announced, 2);
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
  const auction::Outcome served = serve_round(scenario, bids, config).outcome;

  for (int t = 0; t < scenario.task_count(); ++t) {
    ASSERT_EQ(served.allocation.phone_for(TaskId{t}),
              batch.allocation.phone_for(TaskId{t}))
        << "task " << t << " config " << config_id;
  }
  ASSERT_EQ(served.payments, batch.payments) << "config " << config_id;
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
  const auction::Outcome served = serve_round(scenario, bids).outcome;
  EXPECT_EQ(served.payments, batch.payments);
  for (int t = 0; t < scenario.task_count(); ++t) {
    EXPECT_EQ(served.allocation.phone_for(TaskId{t}),
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
  EXPECT_EQ(serve_round(s, bids).outcome.payments, batch.payments);
}

TEST(Platform, DeployablePathIsItselfTruthful) {
  // Belt and braces: run the exhaustive deviation audit THROUGH the served
  // path (not the batch mechanism it is equivalent to), by adapting a
  // RoundMachine fed round_events to the Mechanism interface. Catches any
  // future drift between the two drivers at the incentive level.
  class ServedAdapter final : public auction::Mechanism {
   public:
    [[nodiscard]] auction::Outcome run(
        const model::Scenario& scenario,
        const model::BidProfile& bids) const override {
      return serve_round(scenario, bids).outcome;
    }
    [[nodiscard]] std::string name() const override {
      return "served-round";
    }
  };

  const model::Scenario s = model::fig4_scenario();
  const ServedAdapter served_mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(served_mechanism, s);
  EXPECT_TRUE(report.truthful()) << report.summary();
}

}  // namespace
}  // namespace mcs::serve
