// Tests for the task-patience extension: exact reduction to the paper's
// mechanism at P = 0, deadline semantics (EDF service, expiry), welfare
// recovery with patience, and the empirical incentive properties of the
// generalized Algorithm 2 payments.
#include <gtest/gtest.h>

#include "analysis/rationality.hpp"
#include "analysis/truthfulness.hpp"
#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"
#include "serve/event.hpp"
#include "serve/round_machine.hpp"

namespace mcs::auction {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

/// The paper's mechanism with task patience P.
OnlineGreedyConfig patience_config(Slot::rep_type patience) {
  OnlineGreedyConfig config;
  config.patience = patience;
  return config;
}

OnlineGreedyMechanism patience_greedy(Slot::rep_type patience) {
  return OnlineGreedyMechanism(patience_config(patience));
}

// --------------------------------------------------- reduction at P = 0

class PatienceZeroEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PatienceZeroEquivalence, MatchesOnlineGreedyExactly) {
  Rng rng(GetParam());
  model::WorkloadConfig workload;
  workload.num_slots = 10;
  workload.phone_arrival_rate = 3.0;
  workload.task_arrival_rate = 2.0;
  workload.mean_cost = 12.0;
  workload.task_value = Money::from_units(30);
  const model::Scenario s = model::generate_scenario(workload, rng);
  const model::BidProfile bids = s.truthful_bids();

  const Outcome paper = OnlineGreedyMechanism{}.run(s, bids);
  const Outcome patience = patience_greedy(0).run(s, bids);
  for (int t = 0; t < s.task_count(); ++t) {
    ASSERT_EQ(patience.allocation.phone_for(TaskId{t}),
              paper.allocation.phone_for(TaskId{t}))
        << "task " << t;
  }
  ASSERT_EQ(patience.payments, paper.payments);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatienceZeroEquivalence,
                         ::testing::Range<std::uint64_t>(5200, 5215));

TEST(Patience, Fig4AtPZeroReproducesThePaperNumbers) {
  const model::Scenario s = model::fig4_scenario();
  const Outcome outcome = patience_greedy(0).run_truthful(s);
  EXPECT_EQ(outcome.payments[0], mu(9));
  EXPECT_EQ(outcome.total_payment(), mu(50));
}

// ------------------------------------------------------ deadline semantics

TEST(Patience, TaskWaitsForALatePhone) {
  // No phone in slot 1; with patience 2 the task is served in slot 2.
  const model::Scenario s =
      model::ScenarioBuilder(3).value(10).phone(2, 3, 4).task(1).build();
  const GreedyRun run =
      run_greedy_allocation(s, s.truthful_bids(), patience_config(2));
  EXPECT_EQ(run.allocation.phone_for(TaskId{0}), PhoneId{0});
  EXPECT_EQ(run.allocation.service_slot_for(TaskId{0}, s), Slot{2});
  EXPECT_TRUE(run.slots[0].winners.empty());
  EXPECT_EQ(run.slots[1].winners.size(), 1u);
}

TEST(Patience, TaskExpiresAfterItsDeadline) {
  const model::Scenario s =
      model::ScenarioBuilder(4).value(10).phone(4, 4, 4).task(1).build();
  const GreedyRun run =
      run_greedy_allocation(s, s.truthful_bids(), patience_config(1));
  EXPECT_FALSE(run.allocation.phone_for(TaskId{0}).has_value());
  // Deadline is slot 2: the expiry is recorded there.
  ASSERT_EQ(run.slots[1].unserved.size(), 1u);
  EXPECT_EQ(run.slots[1].unserved[0], TaskId{0});
}

TEST(Patience, EdfServesTheMostUrgentTaskFirst) {
  // Two pending tasks, one phone in slot 2: the slot-2 arrival with the
  // tighter deadline loses to the slot-1 task whose deadline is now.
  const model::Scenario s = model::ScenarioBuilder(3)
                                .value(10)
                                .phone(2, 2, 3)
                                .task(1)   // deadline 2 with P=1
                                .task(2)   // deadline 3 with P=1
                                .build();
  const GreedyRun run =
      run_greedy_allocation(s, s.truthful_bids(), patience_config(1));
  EXPECT_EQ(run.allocation.phone_for(TaskId{0}), PhoneId{0});
  EXPECT_FALSE(run.allocation.phone_for(TaskId{1}).has_value());
}

TEST(Patience, ServiceSlotRespectsTheReportedWindow) {
  // Outcome::validate must accept late service inside the phone's window.
  const model::Scenario s =
      model::ScenarioBuilder(5).value(10).phone(3, 5, 2).task(2).build();
  const Outcome outcome = patience_greedy(3).run_truthful(s);
  EXPECT_NO_THROW(outcome.validate(s, s.truthful_bids()));
  EXPECT_EQ(outcome.allocation.service_slot_for(TaskId{0}, s), Slot{3});
}

// ----------------------------------------------------------- welfare value

TEST(Patience, PatienceRecoversWelfareOnSupplyGaps) {
  // Phones arrive late relative to tasks: P=0 loses everything, patience
  // recovers it.
  const model::Scenario s = model::ScenarioBuilder(6)
                                .value(20)
                                .phone(4, 6, 3)
                                .phone(5, 6, 5)
                                .task(1)
                                .task(2)
                                .build();
  const model::BidProfile bids = s.truthful_bids();
  EXPECT_EQ(patience_greedy(0).run(s, bids).social_welfare(s), Money{});
  EXPECT_EQ(patience_greedy(4).run(s, bids).social_welfare(s),
            mu(32));  // (20-3) + (20-5)
}

TEST(Patience, OfflineOptimumIsMonotoneInPatience) {
  Rng rng(611);
  model::WorkloadConfig workload;
  workload.num_slots = 12;
  workload.phone_arrival_rate = 2.0;
  workload.task_arrival_rate = 2.0;  // tight supply: patience matters
  workload.task_value = Money::from_units(40);
  workload.mean_cost = 15.0;
  for (int trial = 0; trial < 5; ++trial) {
    const model::Scenario s = model::generate_scenario(workload, rng);
    const model::BidProfile bids = s.truthful_bids();
    Money previous = Money::from_units(-1);
    for (const Slot::rep_type patience : {0, 1, 2, 4, 8}) {
      const Money welfare = optimal_patience_welfare(s, bids, patience);
      EXPECT_GE(welfare, previous) << "trial " << trial << " P " << patience;
      previous = welfare;
    }
  }
}

TEST(Patience, GreedyNeverBeatsTheMatchingOptimum) {
  Rng rng(613);
  model::WorkloadConfig workload;
  workload.num_slots = 10;
  workload.phone_arrival_rate = 2.5;
  workload.task_arrival_rate = 2.0;
  workload.task_value = Money::from_units(40);
  for (int trial = 0; trial < 8; ++trial) {
    const model::Scenario s = model::generate_scenario(workload, rng);
    const model::BidProfile bids = s.truthful_bids();
    for (const Slot::rep_type patience : {0, 2, 5}) {
      const Outcome greedy = patience_greedy(patience).run(s, bids);
      EXPECT_LE(greedy.claimed_welfare(s, bids),
                optimal_patience_welfare(s, bids, patience))
          << "trial " << trial << " P " << patience;
    }
  }
}

// ------------------------------------------------------ incentive checks

TEST(Patience, PaymentsCoverClaimsAndIrHolds) {
  Rng rng(617);
  model::WorkloadConfig workload;
  workload.num_slots = 10;
  workload.task_value = Money::from_units(50);
  const model::Scenario s = model::generate_scenario(workload, rng);
  const model::BidProfile bids = s.truthful_bids();
  const OnlineGreedyMechanism mechanism = patience_greedy(3);
  const Outcome outcome = mechanism.run(s, bids);
  for (const PhoneId winner : outcome.allocation.winners()) {
    EXPECT_GE(outcome.payments[static_cast<std::size_t>(winner.value())],
              bids[static_cast<std::size_t>(winner.value())].claimed_cost);
  }
  EXPECT_TRUE(analysis::check_individual_rationality(s, bids, outcome)
                  .individually_rational());
}

class PatienceAudit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatienceAudit, TruthfulOnScarcityFreeInstances) {
  // The same supply regime in which Algorithm 2's critical-value proof
  // operates: full-round phones, more phones than tasks. The audit passing
  // here is the empirical basis for the header's truthfulness claim.
  Rng rng(GetParam());
  const int tasks = static_cast<int>(rng.uniform_int(1, 4));
  const int phones = tasks + 2 + static_cast<int>(rng.uniform_int(0, 3));
  model::ScenarioBuilder builder(5);
  builder.value(80);
  for (int i = 0; i < phones; ++i) {
    builder.phone(1, 5, rng.uniform_int(1, 50));
  }
  for (int k = 0; k < tasks; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 5)));
  }
  const model::Scenario s = builder.build();
  const OnlineGreedyMechanism mechanism = patience_greedy(2);
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(mechanism, s);
  EXPECT_TRUE(report.truthful()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatienceAudit,
                         ::testing::Range<std::uint64_t>(5300, 5315));

TEST(Patience, PaymentEqualsBisectedCriticalValue) {
  Rng rng(619);
  for (int trial = 0; trial < 8; ++trial) {
    const int tasks = static_cast<int>(rng.uniform_int(1, 4));
    const int phones = tasks + 2;
    model::ScenarioBuilder builder(4);
    builder.value(100);
    for (int i = 0; i < phones; ++i) {
      builder.phone(1, 4, rng.uniform_int(1, 60));
    }
    for (int k = 0; k < tasks; ++k) {
      builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 4)));
    }
    const model::Scenario s = builder.build();
    const model::BidProfile bids = s.truthful_bids();
    const OnlineGreedyConfig config = patience_config(2);
    const Outcome outcome = OnlineGreedyMechanism(config).run(s, bids);

    for (const PhoneId winner : outcome.allocation.winners()) {
      const model::Bid& own = bids[static_cast<std::size_t>(winner.value())];
      const WinsWithCost wins = [&](Money cost) {
        const model::BidProfile probe =
            model::with_bid(bids, winner, model::Bid{own.window, cost});
        return run_greedy_allocation(s, probe, config)
            .allocation.is_winner(winner);
      };
      const auto critical =
          bisect_critical_value(wins, mu(200));
      ASSERT_TRUE(critical.has_value());
      const Money payment =
          outcome.payments[static_cast<std::size_t>(winner.value())];
      const std::int64_t gap = payment >= *critical
                                   ? (payment - *critical).micros()
                                   : (*critical - payment).micros();
      EXPECT_LE(gap, 1) << "trial " << trial << " phone " << winner;
    }
  }
}

TEST(Patience, AllocationIsMonotoneInBidImprovements) {
  // Definition 10 analog for the patience rule: a winner that arrives
  // earlier, stays longer, or bids less must keep winning.
  Rng rng(701);
  for (int trial = 0; trial < 10; ++trial) {
    model::ScenarioBuilder builder(5);
    builder.value(60);
    const int phones = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < phones; ++i) {
      const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 5));
      const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 5));
      builder.phone(a, d, rng.uniform_int(1, 40));
    }
    const int tasks = static_cast<int>(rng.uniform_int(1, 5));
    for (int k = 0; k < tasks; ++k) {
      builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 5)));
    }
    const model::Scenario s = builder.build();
    const model::BidProfile bids = s.truthful_bids();
    const OnlineGreedyConfig config = patience_config(2);
    const GreedyRun base = run_greedy_allocation(s, bids, config);

    for (int i = 0; i < phones; ++i) {
      const PhoneId phone{i};
      if (!base.allocation.is_winner(phone)) continue;
      const model::Bid& original = bids[static_cast<std::size_t>(i)];
      for (int improvement = 0; improvement < 3; ++improvement) {
        model::Bid improved = original;
        if (improvement == 0 && improved.window.begin().value() > 1) {
          improved.window = SlotInterval{prev(improved.window.begin()),
                                         improved.window.end()};
        } else if (improvement == 1 &&
                   improved.window.end().value() < s.num_slots) {
          improved.window = SlotInterval{improved.window.begin(),
                                         next(improved.window.end())};
        } else {
          improved.claimed_cost = Money{};  // bid zero
        }
        const GreedyRun probe = run_greedy_allocation(
            s, model::with_bid(bids, phone, improved), config);
        EXPECT_TRUE(probe.allocation.is_winner(phone))
            << "trial " << trial << " phone " << i << " improvement "
            << improvement;
      }
    }
  }
}

// ------------------------------------------------------------- guards

TEST(Patience, RejectsWhatNoDeadlineCanHonour) {
  const model::Scenario s = model::fig4_scenario();
  OnlineGreedyConfig profitable = patience_config(1);
  profitable.allocate_only_profitable = true;
  EXPECT_THROW((void)OnlineGreedyMechanism{profitable}, InvalidArgumentError);
  EXPECT_THROW((void)run_greedy_allocation(s, s.truthful_bids(), profitable),
               InvalidArgumentError);
  EXPECT_THROW((void)OnlineGreedyMechanism{patience_config(-1)},
               InvalidArgumentError);
  profitable.patience = 0;
  EXPECT_NO_THROW((void)OnlineGreedyMechanism{profitable});
}

TEST(Patience, CounterfactualEngineRequiresNoPatience) {
  // A probe fork seeds the pool at the bid's arrival, not the tasks still
  // pending there.
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const OnlineGreedyConfig config = patience_config(2);
  const Allocation factual = run_greedy_allocation(s, bids, config).allocation;
  EXPECT_THROW((void)CounterfactualEngine(s, bids, config, factual),
               ContractViolation);
}

TEST(Patience, RoundMachineRequiresNoPatience) {
  // The serve wire format carries no task deadline.
  EXPECT_THROW((void)serve::RoundMachine(serve::round_open(0, 5, mu(10)),
                                         patience_config(1)),
               ContractViolation);
}

TEST(Patience, NameCarriesThePatience) {
  EXPECT_EQ(patience_greedy(3).name(), "patience-greedy(P=3)");
}

}  // namespace
}  // namespace mcs::auction
