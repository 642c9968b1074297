// Tests for the streaming statistics used to aggregate experiment runs.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mcs {
namespace {

TEST(RunningStats, EmptyStateAndGuards) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_THROW(std::ignore = stats.mean(), ContractViolation);
  EXPECT_THROW(std::ignore = stats.min(), ContractViolation);
  EXPECT_THROW(std::ignore = stats.max(), ContractViolation);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.ci95_half_width(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(7.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 7.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{3.0, 1.5, -2.0, 8.25, 0.0, 4.5};
  RunningStats stats;
  double sum = 0.0;
  for (const double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double variance = ss / static_cast<double>(xs.size() - 1);

  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), variance, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.25);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  Rng rng(6);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_real(0.0, 1.0);
    if (i < 100) small.add(x);
    large.add(x);
  }
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
  // ~1.96 * sd/sqrt(n) for uniform: sd ~ 0.2887.
  EXPECT_NEAR(large.ci95_half_width(), 1.96 * 0.2887 / 100.0, 0.001);
}

TEST(Summary, QuantilesOnKnownData) {
  Summary summary;
  for (int i = 10; i >= 1; --i) summary.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(summary.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(summary.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(summary.median(), 5.5);
  EXPECT_DOUBLE_EQ(summary.quantile(0.25), 3.25);
}

TEST(Summary, SingleSampleQuantiles) {
  Summary summary;
  summary.add(3.0);
  EXPECT_DOUBLE_EQ(summary.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(summary.quantile(0.7), 3.0);
  EXPECT_DOUBLE_EQ(summary.quantile(1.0), 3.0);
}

TEST(Summary, GuardsAndStatsPassThrough) {
  Summary summary;
  EXPECT_THROW(std::ignore = summary.quantile(0.5), ContractViolation);
  summary.add(1.0);
  EXPECT_THROW(std::ignore = summary.quantile(-0.1), ContractViolation);
  EXPECT_THROW(std::ignore = summary.quantile(1.1), ContractViolation);
  summary.add(3.0);
  EXPECT_DOUBLE_EQ(summary.stats().mean(), 2.0);
}

TEST(Summary, InterleavedAddAndQuantile) {
  Summary summary;
  summary.add(5.0);
  EXPECT_DOUBLE_EQ(summary.median(), 5.0);
  summary.add(1.0);  // must re-sort internally
  EXPECT_DOUBLE_EQ(summary.median(), 3.0);
  summary.add(9.0);
  EXPECT_DOUBLE_EQ(summary.median(), 5.0);
}

}  // namespace
}  // namespace mcs
