// End-to-end integration tests: generated workloads driven through both
// mechanisms with every cross-cutting invariant checked at once. These are
// the "whole pipeline" guarantees a downstream user relies on.
#include <gtest/gtest.h>

#include "analysis/competitive.hpp"
#include "analysis/metrics.hpp"
#include "analysis/rationality.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "auction/second_price.hpp"
#include "common/rng.hpp"
#include "support/brute_force.hpp"
#include "model/workload.hpp"

namespace mcs {
namespace {

model::WorkloadConfig small_workload() {
  model::WorkloadConfig workload;
  workload.num_slots = 12;
  workload.phone_arrival_rate = 4.0;
  workload.task_arrival_rate = 2.0;
  workload.mean_cost = 12.0;
  workload.mean_active_length = 3.0;
  workload.task_value = Money::from_units(30);
  return workload;
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, CrossMechanismInvariantsOnGeneratedRound) {
  Rng rng(GetParam());
  const model::Scenario scenario =
      model::generate_scenario(small_workload(), rng);
  const model::BidProfile bids = scenario.truthful_bids();

  const auction::OnlineGreedyMechanism online;
  const auction::OfflineVcgMechanism offline;
  const auction::Outcome online_outcome = online.run(scenario, bids);
  const auction::Outcome offline_outcome = offline.run(scenario, bids);

  // Outcomes are structurally valid (validated inside run; re-check here).
  online_outcome.validate(scenario, bids);
  offline_outcome.validate(scenario, bids);

  // Offline is optimal: it weakly dominates the greedy allocation.
  EXPECT_GE(offline_outcome.claimed_welfare(scenario, bids),
            online_outcome.claimed_welfare(scenario, bids));

  // Theorem 6: the greedy allocation is 1/2-competitive (claimed welfare;
  // all edge weights positive since nu = 30 > max cost 23).
  const analysis::CompetitiveResult ratio =
      analysis::competitive_ratio(scenario, bids);
  EXPECT_GE(ratio.ratio, 0.5) << "online " << ratio.online_welfare
                              << " offline " << ratio.offline_welfare;

  // Theorems 2 and 5: individual rationality under truthful reporting.
  EXPECT_TRUE(analysis::check_individual_rationality(scenario, bids,
                                                     online_outcome)
                  .individually_rational());
  EXPECT_TRUE(analysis::check_individual_rationality(scenario, bids,
                                                     offline_outcome)
                  .individually_rational());

  // Winners are always paid at least their claimed cost; losers zero.
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const PhoneId phone{i};
    for (const auction::Outcome* outcome :
         {&online_outcome, &offline_outcome}) {
      if (outcome->allocation.is_winner(phone)) {
        EXPECT_GE(outcome->payments[static_cast<std::size_t>(i)],
                  bids[static_cast<std::size_t>(i)].claimed_cost);
      } else {
        EXPECT_TRUE(outcome->payments[static_cast<std::size_t>(i)].is_zero());
      }
    }
  }

  // Metrics derive consistently for both mechanisms.
  const analysis::RoundMetrics online_metrics =
      analysis::compute_metrics(scenario, bids, online_outcome);
  const analysis::RoundMetrics offline_metrics =
      analysis::compute_metrics(scenario, bids, offline_outcome);
  EXPECT_GE(online_metrics.overpayment, Money{});
  EXPECT_GE(offline_metrics.overpayment, Money{});
  EXPECT_LE(online_metrics.tasks_allocated, online_metrics.tasks_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1000, 1025));

TEST(Pipeline, OfflineOptimalityAgainstOracleOnGeneratedRounds) {
  // Small generated rounds cross-checked against the exponential oracle.
  Rng rng(31);
  model::WorkloadConfig workload = small_workload();
  workload.num_slots = 5;
  workload.phone_arrival_rate = 1.5;
  workload.task_arrival_rate = 0.8;
  for (int trial = 0; trial < 10; ++trial) {
    const model::Scenario scenario = model::generate_scenario(workload, rng);
    if (scenario.phone_count() > matching::kBruteForceMaxCols ||
        scenario.task_count() > 8) {
      continue;  // keep the oracle tractable
    }
    const model::BidProfile bids = scenario.truthful_bids();
    const Money optimal =
        auction::OfflineVcgMechanism::optimal_claimed_welfare(scenario, bids);
    const matching::Matching oracle = matching::brute_force_max_weight(
        auction::OfflineVcgMechanism::build_graph(scenario, bids));
    EXPECT_EQ(optimal, oracle.total_weight) << "trial " << trial;
  }
}

TEST(Pipeline, MisreportingCostsNeverHelpAcrossMechanismsStatistically) {
  // Every phone inflates its cost by 50% against each truthful mechanism:
  // no phone's utility may exceed its truthful-run utility. (This is a
  // one-profile spot check; the exhaustive audits live in the unit tests.)
  //
  // Generated windowed workloads can contain supply scarcity, where the
  // paper's implicit adequate-supply assumption fails; the online mechanism
  // therefore runs with the allocate_only_profitable guard, which restores
  // exact truthfulness even under scarcity (see
  // OnlineGreedy.ScarcityManipulationAndTheProfitableGuard).
  Rng rng(77);
  const model::Scenario scenario =
      model::generate_scenario(small_workload(), rng);
  const model::BidProfile truthful = scenario.truthful_bids();

  auction::OnlineGreedyConfig guarded;
  guarded.allocate_only_profitable = true;

  for (int i = 0; i < scenario.phone_count(); ++i) {
    const PhoneId phone{i};
    model::BidProfile deviant = truthful;
    deviant[static_cast<std::size_t>(i)].claimed_cost =
        Money::from_double(scenario.phone(phone).cost.to_double() * 1.5);

    const auction::OnlineGreedyMechanism online(guarded);
    EXPECT_LE(online.run(scenario, deviant).utility(scenario, phone),
              online.run(scenario, truthful).utility(scenario, phone))
        << "online, phone " << i;

    const auction::OfflineVcgMechanism offline;
    EXPECT_LE(offline.run(scenario, deviant).utility(scenario, phone),
              offline.run(scenario, truthful).utility(scenario, phone))
        << "offline, phone " << i;
  }
}

TEST(Pipeline, SecondPriceBaselineLeaksMoneyOnFig4ButMechanismsDoNot) {
  // Cross-mechanism contrast on the same generated instance family: the
  // audits are in the unit tests; here we just confirm all three run
  // end-to-end on the same inputs and produce valid outcomes.
  Rng rng(55);
  const model::Scenario scenario =
      model::generate_scenario(small_workload(), rng);
  const model::BidProfile bids = scenario.truthful_bids();
  EXPECT_NO_THROW(auction::SecondPriceBaseline{}.run(scenario, bids));
  EXPECT_NO_THROW(auction::OnlineGreedyMechanism{}.run(scenario, bids));
  EXPECT_NO_THROW(auction::OfflineVcgMechanism{}.run(scenario, bids));
}

TEST(Pipeline, LargeRoundSmoke) {
  // A Table-I-scale round at double the default horizon: both mechanisms
  // complete, agree on the invariants, and stay fast enough for CI.
  Rng rng(4711);
  model::WorkloadConfig workload;  // Table-I defaults
  workload.num_slots = 100;
  const model::Scenario scenario = model::generate_scenario(workload, rng);
  EXPECT_GT(scenario.phone_count(), 400);
  EXPECT_GT(scenario.task_count(), 200);

  const model::BidProfile bids = scenario.truthful_bids();
  const auction::Outcome online =
      auction::OnlineGreedyMechanism{}.run(scenario, bids);
  const auction::Outcome offline =
      auction::OfflineVcgMechanism{}.run(scenario, bids);
  EXPECT_GE(offline.claimed_welfare(scenario, bids),
            online.claimed_welfare(scenario, bids));
  EXPECT_TRUE(analysis::check_individual_rationality(scenario, bids, online)
                  .individually_rational());
  EXPECT_TRUE(analysis::check_individual_rationality(scenario, bids, offline)
                  .individually_rational());
}

TEST(Pipeline, MultiRoundStability) {
  // The paper's auction runs round by round; chain 20 rounds and verify the
  // per-round overpayment ratio stays bounded (the "stable in the long run"
  // remark under Fig. 9).
  Rng rng(2025);
  const model::WorkloadConfig workload = small_workload();
  const auction::OnlineGreedyMechanism online;
  for (int round = 0; round < 20; ++round) {
    const model::Scenario scenario = model::generate_scenario(workload, rng);
    const model::BidProfile bids = scenario.truthful_bids();
    const analysis::RoundMetrics metrics = analysis::compute_metrics(
        scenario, bids, online.run(scenario, bids));
    EXPECT_GE(metrics.overpayment_ratio, 0.0) << "round " << round;
    EXPECT_LE(metrics.overpayment_ratio, 30.0) << "round " << round;
  }
}

}  // namespace
}  // namespace mcs
