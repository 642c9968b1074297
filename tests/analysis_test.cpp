// Tests for the analysis layer: metric derivations (Definition 11), the
// deviation enumerator, the competitive-ratio machinery including the
// adversarial tight family of Theorem 6, and report plumbing.
#include "analysis/competitive.hpp"

#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "support/monotonicity.hpp"
#include "analysis/rationality.hpp"
#include "analysis/truthfulness.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "model/paper_examples.hpp"

namespace mcs::analysis {
namespace {

Money mu(std::int64_t units) { return Money::from_units(units); }

// ----------------------------------------------------------------- metrics

TEST(Metrics, Fig4OnlineRoundMetricsHandComputed) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const RoundMetrics m = compute_metrics(s, bids, outcome);

  EXPECT_EQ(m.social_welfare, mu(69));       // 5*20 - 31
  EXPECT_EQ(m.claimed_welfare, mu(69));      // truthful bids
  EXPECT_EQ(m.total_payment, mu(50));        // 11+9+8+11+11
  EXPECT_EQ(m.total_true_cost, mu(31));
  EXPECT_EQ(m.overpayment, mu(19));
  EXPECT_DOUBLE_EQ(m.overpayment_ratio, 19.0 / 31.0);
  EXPECT_EQ(m.tasks_total, 5);
  EXPECT_EQ(m.tasks_allocated, 5);
  EXPECT_DOUBLE_EQ(m.completion_rate, 1.0);
  EXPECT_EQ(m.platform_utility, mu(50));     // 100 - 50
}

TEST(Metrics, Fig4OfflineOverpaymentExceedsOnline) {
  // The trend the paper reports in Figs. 9-11, already visible on the
  // worked example: VCG pays 45 on true costs 26 (0.73) vs the online
  // mechanism's 50 on 31 (0.61).
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const RoundMetrics offline = compute_metrics(
      s, bids, auction::OfflineVcgMechanism{}.run(s, bids));
  const RoundMetrics online = compute_metrics(
      s, bids, auction::OnlineGreedyMechanism{}.run(s, bids));
  EXPECT_DOUBLE_EQ(offline.overpayment_ratio, 19.0 / 26.0);
  EXPECT_GT(offline.overpayment_ratio, online.overpayment_ratio);
  EXPECT_GT(offline.social_welfare, online.social_welfare);
}

TEST(Metrics, EmptyRoundIsAllZeros) {
  const model::Scenario s = model::ScenarioBuilder(3).value(10).build();
  const model::BidProfile bids;
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism{}.run(s, bids);
  const RoundMetrics m = compute_metrics(s, bids, outcome);
  EXPECT_EQ(m.social_welfare, Money{});
  EXPECT_DOUBLE_EQ(m.overpayment_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.completion_rate, 1.0);  // vacuous
  EXPECT_EQ(m.platform_utility, Money{});
}

TEST(Metrics, DescribeMentionsAllFigures) {
  const model::Scenario s = model::fig4_scenario();
  const model::BidProfile bids = s.truthful_bids();
  const RoundMetrics m = compute_metrics(
      s, bids, auction::OnlineGreedyMechanism{}.run(s, bids));
  const std::string text = describe(m);
  EXPECT_NE(text.find("social welfare"), std::string::npos);
  EXPECT_NE(text.find("overpayment"), std::string::npos);
  EXPECT_NE(text.find("5 / 5"), std::string::npos);
}

// ----------------------------------------------------- deviation enumerator

TEST(Deviations, AllEnumeratedBidsAreLegalAndDistinctFromTruthful) {
  const model::TrueProfile profile{SlotInterval::of(2, 5), mu(10)};
  const std::vector<model::Bid> deviations =
      enumerate_deviations(profile, DeviationOptions{});
  EXPECT_GT(deviations.size(), 50u);
  const model::Bid truthful = model::truthful_bid(profile);
  for (const model::Bid& bid : deviations) {
    EXPECT_TRUE(model::is_legal_report(profile, bid));
    EXPECT_NE(bid, truthful);
  }
}

TEST(Deviations, SingleSlotWindowOnlyVariesCost) {
  const model::TrueProfile profile{SlotInterval::of(3, 3), mu(4)};
  for (const model::Bid& bid :
       enumerate_deviations(profile, DeviationOptions{})) {
    EXPECT_EQ(bid.window, SlotInterval::of(3, 3));
  }
}

TEST(Deviations, GridRespectsConfiguredLimits) {
  DeviationOptions options;
  options.max_arrival_delay = 1;
  options.max_departure_advance = 0;
  options.cost_factors = {1.0};
  options.cost_offsets_units = {};
  const model::TrueProfile profile{SlotInterval::of(2, 5), mu(10)};
  const std::vector<model::Bid> deviations =
      enumerate_deviations(profile, options);
  // Only the delayed window with the truthful cost remains.
  ASSERT_EQ(deviations.size(), 1u);
  EXPECT_EQ(deviations[0].window, SlotInterval::of(3, 5));
  EXPECT_EQ(deviations[0].claimed_cost, mu(10));
}

TEST(Reports, TruthfulnessSummaryAndMaxGain) {
  TruthfulnessReport report;
  report.phones_audited = 2;
  report.deviations_tested = 10;
  EXPECT_TRUE(report.truthful());
  EXPECT_EQ(report.max_gain(), Money{});
  EXPECT_NE(report.summary().find("truthful"), std::string::npos);

  report.violations.push_back(DeviationViolation{
      PhoneId{0}, model::Bid{SlotInterval::of(1, 1), mu(1)}, mu(1), mu(5)});
  report.violations.push_back(DeviationViolation{
      PhoneId{1}, model::Bid{SlotInterval::of(1, 1), mu(1)}, mu(0), mu(2)});
  EXPECT_FALSE(report.truthful());
  EXPECT_EQ(report.max_gain(), mu(4));
  EXPECT_NE(report.summary().find("2 profitable"), std::string::npos);
}

TEST(Reports, RationalitySummary) {
  RationalityReport report;
  report.phones_checked = 3;
  EXPECT_TRUE(report.individually_rational());
  EXPECT_NE(report.summary().find("nonnegative"), std::string::npos);
  report.violations.push_back(
      RationalityViolation{PhoneId{0}, mu(-1), true});
  EXPECT_FALSE(report.individually_rational());
}

TEST(Reports, MonotonicitySummary) {
  MonotonicityReport report;
  report.winners_checked = 4;
  report.improvements_tested = 40;
  EXPECT_TRUE(report.monotone());
  EXPECT_NE(report.summary().find("monotone"), std::string::npos);
}

// -------------------------------------------------------- competitive ratio

TEST(Competitive, Fig4RatioIsSixtyNineOverSeventyFour) {
  const model::Scenario s = model::fig4_scenario();
  const CompetitiveResult result =
      competitive_ratio(s, s.truthful_bids());
  EXPECT_EQ(result.online_welfare, mu(69));
  EXPECT_EQ(result.offline_welfare, mu(74));
  EXPECT_DOUBLE_EQ(result.ratio, 69.0 / 74.0);
}

TEST(Competitive, EmptyInstanceRatioIsOne) {
  const model::Scenario s = model::ScenarioBuilder(2).value(10).build();
  const CompetitiveResult result = competitive_ratio(s, {});
  EXPECT_DOUBLE_EQ(result.ratio, 1.0);
}

TEST(Competitive, TightFamilyMatchesClosedForm) {
  for (const std::int64_t nu : {10LL, 100LL, 1000LL}) {
    const model::Scenario s = tight_competitive_scenario(3, nu);
    const CompetitiveResult result =
        competitive_ratio(s, s.truthful_bids());
    const double nu_d = static_cast<double>(nu);
    EXPECT_DOUBLE_EQ(result.ratio, (nu_d - 1.0) / (2.0 * nu_d - 3.0))
        << "nu=" << nu;
    EXPECT_GE(result.ratio, 0.5);  // Theorem 6 bound, approached from above
  }
}

TEST(Competitive, TightFamilyApproachesOneHalf) {
  const model::Scenario s = tight_competitive_scenario(2, 100000);
  const CompetitiveResult result = competitive_ratio(s, s.truthful_bids());
  EXPECT_NEAR(result.ratio, 0.5, 1e-4);
  EXPECT_GE(result.ratio, 0.5);
}

TEST(Competitive, StudyOverRandomWorkloadsRespectsTheorem6) {
  model::WorkloadConfig workload;
  workload.num_slots = 15;
  workload.phone_arrival_rate = 4.0;
  workload.task_arrival_rate = 2.0;
  workload.task_value = mu(50);  // > max uniform cost 49: positive weights
  const CompetitiveStudy study =
      study_competitive_ratio(workload, 30, /*base_seed=*/7);
  EXPECT_EQ(study.instances, 30u);
  EXPECT_EQ(study.below_half, 0u) << "Theorem 6 violated";
  EXPECT_GE(study.min_ratio(), 0.5);
  EXPECT_LE(study.mean_ratio(), 1.0 + 1e-12);
}

TEST(Competitive, GadgetBuilderValidatesArguments) {
  EXPECT_THROW(tight_competitive_scenario(0, 10), ContractViolation);
  EXPECT_THROW(tight_competitive_scenario(2, 2), ContractViolation);
}

}  // namespace
}  // namespace mcs::analysis
