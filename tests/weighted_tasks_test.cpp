// Tests for the weighted-sensing-query extension: per-task value overrides
// threaded through the model, the offline VCG mechanism, the online greedy
// mechanism (value-descending service order, per-task profitability,
// value-capped scarcity payments), and the metrics.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "analysis/truthfulness.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/scenario.hpp"
#include "support/factual_engine.hpp"

namespace mcs {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

TEST(WeightedTasks, ValueOfFallsBackToScenarioNu) {
  const model::Scenario s = model::ScenarioBuilder(2)
                                .value(20)
                                .valued_task(1, 30)
                                .task(2)
                                .phone(1, 2, 1)
                                .build();
  EXPECT_EQ(s.value_of(TaskId{0}), mu(30));
  EXPECT_EQ(s.value_of(TaskId{1}), mu(20));
  EXPECT_TRUE(s.has_weighted_tasks());

  const model::Scenario plain =
      model::ScenarioBuilder(1).value(20).task(1).phone(1, 1, 1).build();
  EXPECT_FALSE(plain.has_weighted_tasks());
}

TEST(WeightedTasks, BuilderSortKeepsValuesAttached) {
  const model::Scenario s = model::ScenarioBuilder(3)
                                .value(10)
                                .valued_task(3, 99)
                                .valued_task(1, 7)
                                .build();
  // After sorting by slot, the slot-1 task (value 7) is id 0.
  EXPECT_EQ(s.tasks[0].slot, Slot{1});
  EXPECT_EQ(s.value_of(TaskId{0}), mu(7));
  EXPECT_EQ(s.value_of(TaskId{1}), mu(99));
}

TEST(WeightedTasks, ValidationRejectsNegativeValue) {
  model::Scenario s =
      model::ScenarioBuilder(1).value(10).valued_task(1, 5).build();
  s.tasks[0].value = mu(-1);
  EXPECT_THROW(s.validate(), InvalidScenarioError);
}

TEST(WeightedTasks, OfflineGraphUsesPerTaskValues) {
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .valued_task(1, 30)
                                .task(1)
                                .phone(1, 1, 4)
                                .build();
  const matching::WeightMatrix g =
      auction::OfflineVcgMechanism::build_graph(s, s.truthful_bids());
  EXPECT_EQ(g.weight(0, 0), mu(26));  // 30 - 4
  EXPECT_EQ(g.weight(1, 0), mu(16));  // 20 - 4
}

TEST(WeightedTasks, OfflineServesValuableTaskWhenSupplyScarce) {
  // One phone, two tasks in its window: the optimum takes the 30 task.
  const model::Scenario s = model::ScenarioBuilder(2)
                                .value(6)
                                .valued_task(1, 30)
                                .task(2)
                                .phone(1, 2, 10)
                                .build();
  const auction::Outcome outcome =
      auction::OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(outcome.allocation.phone_for(TaskId{0}), PhoneId{0});
  EXPECT_FALSE(outcome.allocation.phone_for(TaskId{1}).has_value());
  EXPECT_EQ(outcome.social_welfare(s), mu(20));
  // VCG: externality is the whole 30-value task.
  EXPECT_EQ(outcome.payments[0], mu(30));
}

TEST(WeightedTasks, OnlineServesHighValueTasksFirstInASlot) {
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .valued_task(1, 5)  // id 0, low value
                                .task(1)            // id 1, value 20
                                .phone(1, 1, 3)
                                .build();
  const auction::GreedyRun run =
      auction::run_greedy_allocation(s, s.truthful_bids());
  EXPECT_EQ(run.allocation.phone_for(TaskId{1}), PhoneId{0});
  EXPECT_FALSE(run.allocation.phone_for(TaskId{0}).has_value());
  ASSERT_EQ(run.slots[0].unserved.size(), 1u);
  EXPECT_EQ(run.slots[0].unserved[0], TaskId{0});
}

TEST(WeightedTasks, ScarcityPaymentCapsAtDearestUnservedTask) {
  // W1: one phone, tasks worth 30 and 6; without the phone both go
  // unserved, so the cap is 30 -- and VCG agrees exactly.
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .valued_task(1, 30)
                                .valued_task(1, 6)
                                .phone(1, 1, 10)
                                .build();
  const auction::Outcome online =
      auction::OnlineGreedyMechanism{}.run_truthful(s);
  EXPECT_EQ(online.payments[0], mu(30));
  const auction::Outcome offline =
      auction::OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(offline.payments[0], mu(30));
  EXPECT_EQ(online.social_welfare(s), mu(20));
}

TEST(WeightedTasks, ProfitableOnlyChecksEligibilityPerTask) {
  // W2: tasks worth 30 and 6; phones cost 8 and 10. B (8) serves the
  // 30-task; A (10) is too expensive for the 6-task and stays unallocated.
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .valued_task(1, 30)
                                .valued_task(1, 6)
                                .phone(1, 1, 10)  // A
                                .phone(1, 1, 8)   // B
                                .build();
  auction::OnlineGreedyConfig config;
  config.allocate_only_profitable = true;
  const auction::OnlineGreedyMechanism mechanism(config);
  const auction::Outcome outcome = mechanism.run_truthful(s);
  EXPECT_EQ(outcome.allocation.phone_for(TaskId{0}), PhoneId{1});
  EXPECT_FALSE(outcome.allocation.phone_for(TaskId{1}).has_value());
  // B's critical value: above 10 it loses the 30-task to A and is too
  // expensive for the 6-task.
  EXPECT_EQ(outcome.payments[1], mu(10));
  EXPECT_EQ(outcome.payments[0], Money{});

  // A phone above the scenario nu can still win a high-value task.
  const model::Scenario premium = model::ScenarioBuilder(1)
                                      .value(20)
                                      .valued_task(1, 100)
                                      .phone(1, 1, 60)
                                      .build();
  const auction::Outcome premium_outcome = mechanism.run_truthful(premium);
  EXPECT_TRUE(premium_outcome.allocation.is_winner(PhoneId{0}));
  EXPECT_EQ(premium_outcome.payments[0], mu(100));  // scarce cap = task value
}

TEST(WeightedTasks, OfflineOnlineAuditsPassOnWeightedInstances) {
  Rng rng(3141);
  for (int trial = 0; trial < 8; ++trial) {
    model::ScenarioBuilder builder(4);
    builder.value(40);
    const int tasks = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < tasks; ++k) {
      builder.valued_task(static_cast<Slot::rep_type>(rng.uniform_int(1, 4)),
                          rng.uniform_int(20, 90));
    }
    // Scarcity-free: full-round phones, more phones than tasks.
    const int phones = tasks + 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < phones; ++i) {
      builder.phone(1, 4, rng.uniform_int(1, 19));
    }
    const model::Scenario s = builder.build();

    const analysis::TruthfulnessReport offline = analysis::audit_truthfulness(
        auction::OfflineVcgMechanism{}, s);
    EXPECT_TRUE(offline.truthful()) << "trial " << trial << ": "
                                    << offline.summary();
    const analysis::TruthfulnessReport online = analysis::audit_truthfulness(
        auction::OnlineGreedyMechanism{}, s);
    EXPECT_TRUE(online.truthful()) << "trial " << trial << ": "
                                   << online.summary();
  }
}

TEST(WeightedTasks, OnlinePaymentStillCriticalValueOnWeightedInstances) {
  Rng rng(2718);
  for (int trial = 0; trial < 10; ++trial) {
    model::ScenarioBuilder builder(3);
    builder.value(50);
    const int tasks = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < tasks; ++k) {
      builder.valued_task(static_cast<Slot::rep_type>(rng.uniform_int(1, 3)),
                          rng.uniform_int(40, 100));
    }
    const int phones = tasks + 2;
    for (int i = 0; i < phones; ++i) {
      builder.phone(1, 3, rng.uniform_int(1, 30));
    }
    const model::Scenario s = builder.build();
    const model::BidProfile bids = s.truthful_bids();
    const auction::OnlineGreedyMechanism mechanism;
    const auction::Outcome outcome = mechanism.run(s, bids);
    const auction::CounterfactualEngine engine =
        test_support::factual_engine(s, bids);
    for (const PhoneId winner : outcome.allocation.winners()) {
      const auto critical = auction::greedy_critical_value(engine, winner);
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

TEST(WeightedTasks, MetricsUsePerTaskValues) {
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .valued_task(1, 30)
                                .phone(1, 1, 10)
                                .phone(1, 1, 12)
                                .build();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const analysis::RoundMetrics m = analysis::compute_metrics(s, bids, outcome);
  EXPECT_EQ(m.social_welfare, mu(20));        // 30 - 10
  EXPECT_EQ(m.total_payment, mu(12));         // second price
  EXPECT_EQ(m.platform_utility, mu(18));      // 30 - 12
}

TEST(WeightedTasks, UniformInstancesUnchangedByExtension) {
  // Regression guard: with no overrides the weighted code paths must
  // reproduce the paper numbers exactly (spot check: the Fig. 4 payments).
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(10)
                                .phone(1, 1, 3)
                                .phone(1, 1, 7)
                                .task(1)
                                .build();
  EXPECT_EQ(auction::OnlineGreedyMechanism{}.run_truthful(s).payments[0],
            mu(7));
}

}  // namespace
}  // namespace mcs
