// Tests for the offline VCG mechanism (paper Section IV): graph
// construction (Fig. 3), allocation optimality against the brute-force
// oracle, hand-computed VCG payments on the Fig. 4 instance, equality of
// incremental and naive marginal computations, and the Theorem 1/2 audits.
//
// Hand computation used below (fig4_scenario, nu = 20): the unique cheapest
// feasible set of 5 winners is phones {0, 1, 4, 5, 6} with claimed costs
// {3, 5, 4, 8, 6} (total 26), so omega*(B) = 100 - 26 = 74. Removing any
// single winner forces the next-cheapest feasible substitution, giving
// omega*(B_{-i}) of 68, 70, 69, 73, 71 for i = 0, 1, 4, 5, 6 respectively
// -- which makes every winner's VCG payment exactly 9.
#include "auction/offline_vcg.hpp"

#include <gtest/gtest.h>

#include "analysis/rationality.hpp"
#include "analysis/truthfulness.hpp"
#include "common/rng.hpp"
#include "matching/hungarian.hpp"
#include "support/brute_force.hpp"
#include "model/paper_examples.hpp"
#include "model/strategy.hpp"
#include "model/workload.hpp"

namespace mcs::auction {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// ------------------------------------------------------ graph construction

TEST(OfflineGraph, Fig3EdgesFollowActivity) {
  const model::Scenario s = model::fig3_scenario();
  const matching::WeightMatrix g =
      OfflineVcgMechanism::build_graph(s, s.truthful_bids());
  ASSERT_EQ(g.rows(), 5);  // tasks
  ASSERT_EQ(g.cols(), 4);  // phones
  // Phone 0 is active in both slots: edges to all five tasks.
  for (int t = 0; t < 5; ++t) {
    EXPECT_TRUE(g.has_edge(t, 0)) << "task " << t;
    EXPECT_EQ(g.weight(t, 0), s.task_value - s.phone(PhoneId{0}).cost);
  }
  // Phones 1-3 join in slot 2: no edges to the slot-1 tasks (0, 1), edges
  // to the slot-2 tasks (2, 3, 4).
  for (int phone = 1; phone < 4; ++phone) {
    EXPECT_FALSE(g.has_edge(0, phone));
    EXPECT_FALSE(g.has_edge(1, phone));
    for (int t = 2; t < 5; ++t) {
      EXPECT_TRUE(g.has_edge(t, phone));
    }
  }
}

TEST(OfflineGraph, WeightIsValueMinusClaimedCost) {
  const model::Scenario s =
      model::ScenarioBuilder(2).value(10).phone(1, 2, 3).task(1).build();
  model::BidProfile bids = s.truthful_bids();
  bids[0].claimed_cost = mu(7);  // misreport; graph must use the claim
  const matching::WeightMatrix g = OfflineVcgMechanism::build_graph(s, bids);
  EXPECT_EQ(g.weight(0, 0), mu(3));
}

// ------------------------------------------------------------- allocation

TEST(OfflineVcg, Fig4AllocatesCheapestFeasibleSet) {
  const model::Scenario s = model::fig4_scenario();
  const OfflineVcgMechanism mechanism;
  const Outcome outcome = mechanism.run_truthful(s);
  EXPECT_EQ(outcome.allocation.allocated_count(), 5);
  const std::vector<PhoneId> winners = outcome.allocation.winners();
  EXPECT_EQ(winners, (std::vector<PhoneId>{PhoneId{0}, PhoneId{1}, PhoneId{4},
                                           PhoneId{5}, PhoneId{6}}));
  EXPECT_EQ(outcome.social_welfare(s), mu(74));
}

TEST(OfflineVcg, Fig4BeatsOnlineWelfare) {
  // The online greedy run allocates {1, 0, 6, 5, 3} at total cost 31
  // (welfare 69); the offline optimum is 74.
  const model::Scenario s = model::fig4_scenario();
  EXPECT_EQ(OfflineVcgMechanism::optimal_claimed_welfare(s, s.truthful_bids()),
            mu(74));
}

TEST(OfflineVcg, LeavesUnprofitableTasksUnallocated) {
  // One phone costing more than the value: the optimum allocates nothing.
  const model::Scenario s =
      model::ScenarioBuilder(1).value(5).phone(1, 1, 9).task(1).build();
  const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(outcome.allocation.allocated_count(), 0);
  EXPECT_EQ(outcome.total_payment(), Money{});
}

TEST(OfflineVcg, EmptyScenarios) {
  {
    const model::Scenario s = model::ScenarioBuilder(3).value(5).build();
    const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
    EXPECT_EQ(outcome.allocation.allocated_count(), 0);
  }
  {
    const model::Scenario s =
        model::ScenarioBuilder(3).value(5).phone(1, 2, 1).build();
    const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
    EXPECT_EQ(outcome.allocation.allocated_count(), 0);
    EXPECT_EQ(outcome.payments[0], Money{});
  }
}

TEST(OfflineVcg, OptimalityAgainstOracleOnRandomInstances) {
  Rng rng(808);
  for (int trial = 0; trial < 50; ++trial) {
    model::ScenarioBuilder builder(4);
    builder.value(15);
    const int phones = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < phones; ++i) {
      const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 4));
      const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 4));
      builder.phone(a, d, rng.uniform_int(1, 20));
    }
    const int tasks = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < tasks; ++k) {
      builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 4)));
    }
    const model::Scenario s = builder.build();
    const model::BidProfile bids = s.truthful_bids();

    const Outcome outcome = OfflineVcgMechanism{}.run(s, bids);
    const matching::Matching oracle = matching::brute_force_max_weight(
        OfflineVcgMechanism::build_graph(s, bids));
    ASSERT_EQ(outcome.claimed_welfare(s, bids), oracle.total_weight)
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------- payments

TEST(OfflineVcg, Fig4PaymentsAllNine) {
  const model::Scenario s = model::fig4_scenario();
  const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
  for (const PhoneId winner :
       {PhoneId{0}, PhoneId{1}, PhoneId{4}, PhoneId{5}, PhoneId{6}}) {
    EXPECT_EQ(outcome.payments[static_cast<std::size_t>(winner.value())],
              mu(9))
        << "phone " << winner;
  }
  // Losers are paid nothing.
  EXPECT_EQ(outcome.payments[2], Money{});
  EXPECT_EQ(outcome.payments[3], Money{});
  EXPECT_EQ(outcome.total_payment(), mu(45));
}

TEST(OfflineVcg, Fig4UtilitiesAreMarginalContributions) {
  // u_i = omega*(B) - omega*(B_{-i}): 6, 4, 5, 1, 3 for phones 0,1,4,5,6.
  const model::Scenario s = model::fig4_scenario();
  const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(outcome.utility(s, PhoneId{0}), mu(6));
  EXPECT_EQ(outcome.utility(s, PhoneId{1}), mu(4));
  EXPECT_EQ(outcome.utility(s, PhoneId{4}), mu(5));
  EXPECT_EQ(outcome.utility(s, PhoneId{5}), mu(1));
  EXPECT_EQ(outcome.utility(s, PhoneId{6}), mu(3));
  EXPECT_EQ(outcome.utility(s, PhoneId{2}), Money{});
  EXPECT_EQ(outcome.utility(s, PhoneId{3}), Money{});
}

TEST(OfflineVcg, SingleBidderPaidFullValue) {
  // Alone, a bidder's externality is the whole task: VCG pays nu.
  const model::Scenario s =
      model::ScenarioBuilder(1).value(10).phone(1, 1, 2).task(1).build();
  const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(outcome.payments[0], mu(10));
  EXPECT_EQ(outcome.utility(s, PhoneId{0}), mu(8));
}

TEST(OfflineVcg, DuopolyPaysSecondPrice) {
  // Two phones, one task: classic VCG = second price.
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(10)
                                .phone(1, 1, 2)
                                .phone(1, 1, 7)
                                .task(1)
                                .build();
  const Outcome outcome = OfflineVcgMechanism{}.run_truthful(s);
  EXPECT_EQ(outcome.payments[0], mu(7));
  EXPECT_EQ(outcome.payments[1], Money{});
}

TEST(OfflineVcg, NaiveAndIncrementalMarginalsAgree) {
  // The mechanism takes each omega*(B_{-i}) from the matcher's incremental
  // column-removal query; the oracle re-solves the graph without column i.
  Rng rng(909);
  const OfflineVcgMechanism mechanism;
  for (int trial = 0; trial < 25; ++trial) {
    model::ScenarioBuilder builder(5);
    builder.value(25);
    const int phones = static_cast<int>(rng.uniform_int(2, 10));
    for (int i = 0; i < phones; ++i) {
      const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 5));
      const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 5));
      builder.phone(a, d, rng.uniform_int(1, 24));
    }
    const int tasks = static_cast<int>(rng.uniform_int(1, 7));
    for (int k = 0; k < tasks; ++k) {
      builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 5)));
    }
    const model::Scenario s = builder.build();
    const model::BidProfile bids = s.truthful_bids();
    const Outcome outcome = mechanism.run(s, bids);

    const matching::WeightMatrix graph =
        OfflineVcgMechanism::build_graph(s, bids);
    const Money welfare_all = matching::MaxWeightMatcher(graph).total_weight();
    std::vector<Money> naive(bids.size());
    for (const PhoneId winner : outcome.allocation.winners()) {
      const auto i = static_cast<std::size_t>(winner.value());
      const Money welfare_without =
          matching::MaxWeightMatcher(graph.without_column(winner.value()))
              .total_weight();
      naive[i] = welfare_all + bids[i].claimed_cost - welfare_without;
    }
    ASSERT_EQ(outcome.payments, naive) << "trial " << trial;
  }
}

// ------------------------------------------------------- theorem audits

TEST(OfflineVcg, Fig4TruthfulnessAuditPasses) {
  const model::Scenario s = model::fig4_scenario();
  const OfflineVcgMechanism mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(mechanism, s);
  EXPECT_TRUE(report.truthful()) << report.summary();
  EXPECT_GT(report.deviations_tested, 200);
}

class OfflineVcgRandomAudit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineVcgRandomAudit, TruthfulAndRationalOnRandomInstance) {
  Rng rng(GetParam());
  model::ScenarioBuilder builder(4);
  builder.value(12);
  const int phones = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < phones; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 4));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, 4));
    builder.phone(a, d, rng.uniform_int(1, 15));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 4));
  for (int k = 0; k < tasks; ++k) {
    builder.task(static_cast<Slot::rep_type>(rng.uniform_int(1, 4)));
  }
  const model::Scenario s = builder.build();
  const OfflineVcgMechanism mechanism;

  const analysis::TruthfulnessReport truth =
      analysis::audit_truthfulness(mechanism, s);
  EXPECT_TRUE(truth.truthful()) << truth.summary();

  const analysis::RationalityReport rationality =
      analysis::audit_individual_rationality(mechanism, s);
  EXPECT_TRUE(rationality.individually_rational()) << rationality.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineVcgRandomAudit,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(OfflineVcg, TruthfulnessHoldsAgainstStrategicOthers) {
  // Definition 4 quantifies over arbitrary B_{-i}: audit with the other
  // phones already misreporting.
  const model::Scenario s = model::fig4_scenario();
  Rng rng(5);
  model::BidProfile base =
      model::apply_strategy(s, model::CostMarkupStrategy(1.5), rng);
  const OfflineVcgMechanism mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(mechanism, s, base);
  EXPECT_TRUE(report.truthful()) << report.summary();
}

TEST(OfflineVcg, WinnersPaidAtLeastClaimedCost) {
  Rng rng(1234);
  model::WorkloadConfig workload;
  workload.num_slots = 10;
  workload.phone_arrival_rate = 3.0;
  workload.task_arrival_rate = 1.5;
  workload.mean_cost = 10.0;
  workload.task_value = mu(20);
  const model::Scenario s = model::generate_scenario(workload, rng);
  const model::BidProfile bids = s.truthful_bids();
  const Outcome outcome = OfflineVcgMechanism{}.run(s, bids);
  for (const PhoneId winner : outcome.allocation.winners()) {
    EXPECT_GE(outcome.payments[static_cast<std::size_t>(winner.value())],
              bids[static_cast<std::size_t>(winner.value())].claimed_cost);
  }
}

}  // namespace
}  // namespace mcs::auction
