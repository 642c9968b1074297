// Unit tests for the economic metrics primitives: the pure ratio math
// (overpayment sigma, Jain fairness, coverage), the micro-ratio sketch
// encoding, the EconWindowAggregator delta machinery, and the sticky
// degraded-economics health classification.
#include "obs/econ_metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/money.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------- ratio math

TEST(EconMath, OverpaymentRatioIsSigma) {
  EXPECT_DOUBLE_EQ(
      overpayment_ratio(Money::from_units(15), Money::from_units(10)), 0.5);
  EXPECT_DOUBLE_EQ(
      overpayment_ratio(Money::from_units(10), Money::from_units(10)), 0.0);
  EXPECT_DOUBLE_EQ(overpayment_ratio(Money::from_units(3), Money{}), 0.0)
      << "no winners, no sigma";
}

TEST(EconMath, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({Money{}, Money{}}), 1.0)
      << "all-zero payments are not uneven";
  EXPECT_DOUBLE_EQ(
      jain_fairness({Money::from_units(4), Money::from_units(4)}), 1.0);
  // One phone takes everything out of 4: index collapses to 1/4.
  EXPECT_DOUBLE_EQ(
      jain_fairness({Money::from_units(8), Money{}, Money{}, Money{}}), 0.25);
}

TEST(EconMath, CoverageRate) {
  EXPECT_DOUBLE_EQ(coverage_rate(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(coverage_rate(0, 0), 1.0) << "no tasks, full coverage";
  EXPECT_DOUBLE_EQ(coverage_rate(0, 5), 0.0);
}

TEST(EconMath, RatioSketchUnitsRoundTrip) {
  EXPECT_EQ(ratio_to_sketch_units(0.0), 0u);
  EXPECT_EQ(ratio_to_sketch_units(1.0), 1'000'000u);
  EXPECT_EQ(ratio_to_sketch_units(-0.5), 0u) << "negative ratios clamp";
  EXPECT_DOUBLE_EQ(sketch_units_to_ratio(500'000.0), 0.5);
  EXPECT_DOUBLE_EQ(
      sketch_units_to_ratio(static_cast<double>(ratio_to_sketch_units(0.75))),
      0.75);
}

// --------------------------------------------------------------- windows

EconCumulative cumulative_at(std::uint64_t at_ns, std::int64_t rounds,
                             std::int64_t payment_micros) {
  EconCumulative sample;
  sample.at_ns = at_ns;
  sample.rounds = rounds;
  sample.payment_micros = payment_micros;
  sample.tasks = rounds * 4;
  sample.tasks_allocated = rounds * 3;
  return sample;
}

TEST(EconWindows, AggregatorProducesExactDeltas) {
  EconWindowAggregator aggregator;
  const EconWindowStats& first =
      aggregator.roll(cumulative_at(1'000'000'000ULL, 5, 700));
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(first.rounds, 5);
  EXPECT_EQ(first.payment_micros, 700);
  EXPECT_DOUBLE_EQ(first.rounds_per_sec, 5.0);
  EXPECT_DOUBLE_EQ(first.coverage, 0.75);

  const EconWindowStats& second =
      aggregator.roll(cumulative_at(3'000'000'000ULL, 6, 1000));
  EXPECT_EQ(second.index, 1);
  EXPECT_EQ(second.rounds, 1) << "delta, not cumulative";
  EXPECT_EQ(second.payment_micros, 300);
  EXPECT_DOUBLE_EQ(second.rounds_per_sec, 0.5);
  EXPECT_EQ(second.begin_ns, first.end_ns) << "windows chain";
}

TEST(EconWindows, OverpaymentRatioDerivesFromWindowDeltas) {
  EconWindowAggregator aggregator;
  EconCumulative sample;
  sample.at_ns = 1'000'000'000ULL;
  sample.payment_micros = Money::from_units(15).micros();
  sample.claimed_cost_micros = Money::from_units(10).micros();
  const EconWindowStats& window = aggregator.roll(sample);
  EXPECT_DOUBLE_EQ(window.overpayment_ratio, 0.5);
}

// ---------------------------------------------------------------- health

TEST(EconHealth, AnyViolationIsDegradedEconomics) {
  EXPECT_EQ(classify_econ_health(0), HealthState::kHealthy);
  EXPECT_EQ(classify_econ_health(1), HealthState::kDegradedEconomics);
  EXPECT_EQ(classify_econ_health(40), HealthState::kDegradedEconomics);
}

TEST(EconHealth, DegradedEconomicsOutranksEverySystemsState) {
  EXPECT_EQ(to_string(HealthState::kDegradedEconomics), "degraded-economics");
  EXPECT_EQ(worse(HealthState::kStalled, HealthState::kDegradedEconomics),
            HealthState::kDegradedEconomics);
  EXPECT_EQ(worse(HealthState::kDegradedEconomics, HealthState::kHealthy),
            HealthState::kDegradedEconomics);
}

}  // namespace
}  // namespace mcs::obs
