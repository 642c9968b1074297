// Tests for the baseline mechanisms: the per-slot second-price scheme whose
// manipulability motivates the paper's Algorithm 2 (Fig. 5 is reproduced
// exactly), and the random/FIFO welfare baselines.
#include "auction/second_price.hpp"

#include <gtest/gtest.h>

#include "analysis/truthfulness.hpp"
#include "auction/naive_baselines.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/workload.hpp"

namespace mcs::auction {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// ----------------------------------------------------------- second price

TEST(SecondPrice, Fig5TruthfulPaymentsMatchPaper) {
  // Fig. 5(a): Smartphone 2 (phone 1) wins slot 1 and is paid 6; Smartphone
  // 1 (phone 0) wins slot 2 and is paid 4.
  const model::Scenario s = model::fig4_scenario();
  const SecondPriceBaseline mechanism;
  const Outcome outcome = mechanism.run_truthful(s);
  EXPECT_EQ(outcome.payments[1], mu(6));
  EXPECT_EQ(outcome.payments[0], mu(4));
  // Same allocation as the online greedy rule.
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{6}));
  EXPECT_EQ(outcome.payments[6], mu(8));  // runner-up in slot 3 is phone 5
}

TEST(SecondPrice, Fig5DelayedArrivalRaisesPaymentFourToEight) {
  // Fig. 5(b): phone 0 delays its reported arrival to slot 4 and its
  // payment jumps from 4 to 8 -- utility 1 -> 5, a strict gain.
  const model::Scenario s = model::fig4_scenario();
  const SecondPriceBaseline mechanism;

  const Outcome truthful = mechanism.run_truthful(s);
  EXPECT_EQ(truthful.payments[0], mu(4));
  EXPECT_EQ(truthful.utility(s, PhoneId{0}), mu(1));

  const model::BidProfile delayed = model::with_bid(
      s.truthful_bids(), PhoneId{0}, model::fig5_delayed_bid_phone1());
  const Outcome deviant = mechanism.run(s, delayed);
  ASSERT_TRUE(deviant.allocation.is_winner(PhoneId{0}));
  EXPECT_EQ(deviant.payments[0], mu(8));
  EXPECT_EQ(deviant.utility(s, PhoneId{0}), mu(5));
}

TEST(SecondPrice, AuditFindsTheFig5Manipulation) {
  const model::Scenario s = model::fig4_scenario();
  const SecondPriceBaseline mechanism;
  const analysis::TruthfulnessReport report =
      analysis::audit_truthfulness(mechanism, s);
  ASSERT_FALSE(report.truthful()) << "the baseline must be manipulable";
  // The audit must discover a violation for phone 0 with the delayed
  // window [4,5] and a gain of at least 4 (the paper's example).
  bool found_paper_manipulation = false;
  for (const analysis::DeviationViolation& v : report.violations) {
    if (v.phone == PhoneId{0} &&
        v.deviant_bid.window == SlotInterval::of(4, 5) &&
        v.gain() >= mu(4)) {
      found_paper_manipulation = true;
    }
  }
  EXPECT_TRUE(found_paper_manipulation) << report.summary();
}

TEST(SecondPrice, WhileOurMechanismsPassTheSameAudit) {
  // The contrast the paper draws: same instance, same deviation grid --
  // the proposed mechanisms are truthful where the baseline is not.
  const model::Scenario s = model::fig4_scenario();
  EXPECT_TRUE(
      analysis::audit_truthfulness(OnlineGreedyMechanism{}, s).truthful());
  EXPECT_TRUE(
      analysis::audit_truthfulness(OfflineVcgMechanism{}, s).truthful());
}

TEST(SecondPrice, NoRunnerUpFallbacks) {
  // With no losing bid left, the winner is paid its own bid.
  const model::Scenario s =
      model::ScenarioBuilder(1).value(10).phone(1, 1, 3).task(1).build();
  EXPECT_EQ(SecondPriceBaseline{}.run_truthful(s).payments[0], mu(3));
}

TEST(SecondPrice, UniformPriceWithMultipleTasksPerSlot) {
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .phone(1, 1, 2)
                                .phone(1, 1, 5)
                                .phone(1, 1, 9)
                                .tasks(1, 2)
                                .build();
  const Outcome outcome = SecondPriceBaseline{}.run_truthful(s);
  // Both winners are paid the best losing bid (9).
  EXPECT_EQ(outcome.payments[0], mu(9));
  EXPECT_EQ(outcome.payments[1], mu(9));
  EXPECT_EQ(outcome.payments[2], Money{});
}

TEST(SecondPrice, EqualBidsTieBreakByPhoneId) {
  // Two phones claim the same cost for one task: the allocation tie goes
  // to the lower id (the fixed order Algorithm 1 requires), and the winner
  // is paid the runner-up's -- equal -- claim, so the tie is paid fairly.
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(20)
                                .phone(1, 1, 7)
                                .phone(1, 1, 7)
                                .task(1)
                                .build();
  const Outcome outcome = SecondPriceBaseline{}.run_truthful(s);
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
  EXPECT_FALSE(outcome.allocation.is_winner(PhoneId{1}));
  EXPECT_EQ(outcome.payments[0], mu(7));
  EXPECT_EQ(outcome.payments[1], Money{});
}

TEST(SecondPrice, EqualBidsAcrossSlotsWinInIdOrder) {
  // Three equal claims, two single-task slots, distinct windows: slot 1
  // takes the lowest id available there, slot 2 the next. The phone whose
  // window closed without a win gets nothing.
  const model::Scenario s = model::ScenarioBuilder(2)
                                .value(20)
                                .phone(1, 2, 5)
                                .phone(1, 1, 5)  // slot 1 only
                                .phone(2, 2, 5)
                                .task(1)
                                .task(2)
                                .build();
  const Outcome outcome = SecondPriceBaseline{}.run_truthful(s);
  // Slot 1: phones {0, 1} tie at 5 -> phone 0 wins, runner-up pays 5.
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
  EXPECT_EQ(outcome.payments[0], mu(5));
  // Slot 2: phones {1 gone, 2} -> phone 2 wins; no loser left in the
  // pool, so the kOwnBid default pays its own claim.
  EXPECT_FALSE(outcome.allocation.is_winner(PhoneId{1}));
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{2}));
  EXPECT_EQ(outcome.payments[2], mu(5));
}

TEST(SecondPrice, EmptySlotLeavesItsTaskUnserved) {
  // A task arrives in a slot where no phone is active: it goes unserved
  // and the outcome stays structurally valid (no payment materializes).
  const model::Scenario s = model::ScenarioBuilder(3)
                                .value(20)
                                .phone(3, 3, 4)
                                .task(1)  // nobody active in slot 1
                                .task(3)
                                .build();
  const Outcome outcome = SecondPriceBaseline{}.run_truthful(s);
  outcome.validate(s, s.truthful_bids());
  EXPECT_EQ(outcome.allocation.winners().size(), 1u);
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
  EXPECT_EQ(outcome.total_payment(), outcome.payments[0]);
}

TEST(SecondPrice, ManipulableSystematicallyAcrossRandomInstances) {
  // Fig. 5 is not a fluke of the worked example: over randomized windowed
  // instances the audit keeps finding profitable misreports against the
  // per-slot second-price rule, while the online mechanism stays clean on
  // the very same instances (restricted to its scarcity-free regime the
  // audits elsewhere cover; here we only claim the baseline's failures).
  Rng rng(8442);
  int violations_total = 0;
  int instances_with_violation = 0;
  const SecondPriceBaseline baseline;
  for (int trial = 0; trial < 12; ++trial) {
    model::ScenarioBuilder builder(5);
    builder.value(40);
    const int phones = 4 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < phones; ++i) {
      const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, 4));
      const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a + 1, 5));
      builder.phone(a, d, rng.uniform_int(1, 30));
    }
    for (Slot::rep_type t = 1; t <= 5; ++t) builder.task(t);
    const model::Scenario s = builder.build();
    const analysis::TruthfulnessReport report =
        analysis::audit_truthfulness(baseline, s);
    violations_total += static_cast<int>(report.violations.size());
    if (!report.truthful()) ++instances_with_violation;
  }
  EXPECT_GT(violations_total, 0);
  EXPECT_GE(instances_with_violation, 3)
      << "the baseline should be manipulable on a healthy fraction of "
         "random instances";
}

// -------------------------------------------------------- naive baselines

TEST(NaiveBaselines, FifoPicksEarliestArrival) {
  const model::Scenario s = model::ScenarioBuilder(3)
                                .value(10)
                                .phone(2, 3, 1)  // cheap but late
                                .phone(1, 3, 9)  // early and expensive
                                .task(3)
                                .build();
  const Outcome outcome = FifoAllocationMechanism{}.run_truthful(s);
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{1}));
  EXPECT_EQ(outcome.payments[1], mu(9));  // first price
}

TEST(NaiveBaselines, FifoBreaksArrivalTiesById) {
  const model::Scenario s = model::ScenarioBuilder(1)
                                .value(10)
                                .phone(1, 1, 5)
                                .phone(1, 1, 5)
                                .task(1)
                                .build();
  const Outcome outcome = FifoAllocationMechanism{}.run_truthful(s);
  EXPECT_TRUE(outcome.allocation.is_winner(PhoneId{0}));
}

TEST(NaiveBaselines, RandomIsDeterministicPerSeed) {
  const model::Scenario s = model::fig4_scenario();
  const RandomAllocationMechanism a(7);
  const RandomAllocationMechanism b(7);
  const RandomAllocationMechanism c(8);
  const Outcome oa = a.run_truthful(s);
  const Outcome ob = b.run_truthful(s);
  EXPECT_EQ(oa.payments, ob.payments);
  // A different seed is allowed to differ (and does on this instance for
  // at least one of a few probes).
  bool any_difference = false;
  for (std::uint64_t seed = 8; seed < 16 && !any_difference; ++seed) {
    any_difference =
        RandomAllocationMechanism(seed).run_truthful(s).payments !=
        oa.payments;
  }
  EXPECT_TRUE(any_difference);
}

TEST(NaiveBaselines, OutcomesAreStructurallyValid) {
  Rng rng(99);
  model::WorkloadConfig workload;
  workload.num_slots = 12;
  const model::Scenario s = model::generate_scenario(workload, rng);
  const model::BidProfile bids = s.truthful_bids();
  EXPECT_NO_THROW(RandomAllocationMechanism{}.run(s, bids));
  EXPECT_NO_THROW(FifoAllocationMechanism{}.run(s, bids));
}

TEST(NaiveBaselines, GreedyWelfareDominatesNaiveOnAverage) {
  // Statistical, not per-instance: the cost-aware greedy rule must beat
  // cost-blind allocation in aggregate welfare over random rounds.
  Rng rng(123);
  model::WorkloadConfig workload;
  workload.num_slots = 15;
  workload.task_value = mu(50);
  double greedy_total = 0.0;
  double random_total = 0.0;
  double fifo_total = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    const model::Scenario s = model::generate_scenario(workload, rng);
    const model::BidProfile bids = s.truthful_bids();
    greedy_total += OnlineGreedyMechanism{}
                        .run(s, bids)
                        .social_welfare(s)
                        .to_double();
    random_total += RandomAllocationMechanism{static_cast<std::uint64_t>(rep)}
                        .run(s, bids)
                        .social_welfare(s)
                        .to_double();
    fifo_total +=
        FifoAllocationMechanism{}.run(s, bids).social_welfare(s).to_double();
  }
  EXPECT_GT(greedy_total, random_total);
  EXPECT_GT(greedy_total, fifo_total);
}

}  // namespace
}  // namespace mcs::auction
