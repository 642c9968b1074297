// Tests for the deterministic RNG and the workload distributions. The
// statistical checks use wide tolerances (5+ sigma) so they are effectively
// deterministic for the fixed seeds used here.
#include "common/distributions.hpp"
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/round_trace.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"

namespace mcs {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at step " << i;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkStreamsAreDeterministicAndDistinct) {
  const Rng parent(99);
  Rng child_a = parent.fork(0);
  Rng child_a2 = parent.fork(0);
  Rng child_b = parent.fork(1);
  EXPECT_EQ(child_a.next(), child_a2.next());
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child_a.next() == child_b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++counts[rng.next_below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, samples / 10, 600);  // ~6 sigma of binomial(1e5, .1)
  }
}

TEST(Rng, UniformIntCoversClosedRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsOutOfRangeP) {
  Rng rng(13);
  EXPECT_THROW(rng.bernoulli(-0.1), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.1), ContractViolation);
}

// ---------------------------------------------------------- distributions

TEST(Poisson, ZeroLambdaAlwaysZero) {
  const PoissonSampler sampler(0.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0);
}

TEST(Poisson, RejectsNegativeLambda) {
  EXPECT_THROW(PoissonSampler(-1.0), ContractViolation);
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVarianceMatchLambda) {
  const double lambda = GetParam();
  const PoissonSampler sampler(lambda);
  Rng rng(42);
  RunningStats stats;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    const std::int64_t k = sampler.sample(rng);
    ASSERT_GE(k, 0);
    stats.add(static_cast<double>(k));
  }
  const double tolerance = 6.0 * std::sqrt(lambda / samples) + 0.01;
  EXPECT_NEAR(stats.mean(), lambda, tolerance) << "lambda=" << lambda;
  EXPECT_NEAR(stats.variance(), lambda, 0.05 * lambda + 0.05)
      << "lambda=" << lambda;
}

// Covers both the Knuth (< 10) and PTRS (>= 10) code paths, including the
// paper's arrival rates 3 and 6.
INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonMoments,
                         ::testing::Values(0.5, 3.0, 6.0, 9.9, 10.0, 25.0,
                                           100.0));

TEST(UniformIntSampler, MeanMatches) {
  const UniformIntSampler sampler(1, 49);  // the default cost distribution
  EXPECT_DOUBLE_EQ(sampler.mean(), 25.0);
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const std::int64_t v = sampler.sample(rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 49);
    stats.add(static_cast<double>(v));
  }
  EXPECT_NEAR(stats.mean(), 25.0, 0.3);
}

TEST(ExponentialSampler, MeanIsInverseRate) {
  const ExponentialSampler sampler(0.25);
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double x = sampler.sample(rng);
    ASSERT_GE(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(ExponentialSampler, RejectsNonPositiveRate) {
  EXPECT_THROW(ExponentialSampler(0.0), ContractViolation);
  EXPECT_THROW(ExponentialSampler(-1.0), ContractViolation);
}

TEST(NormalSampler, MomentsMatch) {
  NormalSampler sampler(25.0, 6.25);
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(sampler.sample(rng));
  EXPECT_NEAR(stats.mean(), 25.0, 0.15);
  EXPECT_NEAR(stats.stddev(), 6.25, 0.15);
}

TEST(NormalSampler, TruncationRespectsBounds) {
  NormalSampler sampler(25.0, 10.0);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double x = sampler.sample_truncated(rng, 0.5, 50.0);
    ASSERT_GE(x, 0.5);
    ASSERT_LE(x, 50.0);
  }
}

TEST(DiscreteSampler, FrequenciesMatchWeights) {
  const DiscreteSampler sampler({1.0, 2.0, 7.0});
  Rng rng(12);
  std::vector<int> counts(3, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(counts[0], 0.1 * samples, 0.01 * samples);
  EXPECT_NEAR(counts[1], 0.2 * samples, 0.01 * samples);
  EXPECT_NEAR(counts[2], 0.7 * samples, 0.01 * samples);
}

TEST(DiscreteSampler, SingleOutcome) {
  const DiscreteSampler sampler({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, ZeroWeightNeverDrawn) {
  const DiscreteSampler sampler({0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(DiscreteSampler, RejectsBadWeights) {
  EXPECT_THROW(DiscreteSampler({}), ContractViolation);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), ContractViolation);
  EXPECT_THROW(DiscreteSampler({-1.0, 2.0}), ContractViolation);
}

// The shard router, the econ probe sampler and the trace id all hash a
// round id with SplitMix64::next(). These outputs are pinned, so none of
// the three can drift: a change moves rounds between shards, changes
// which rounds the econ plane deep-probes, or renames recorded traces.
TEST(SplitMix64, RoundHashesArePinned) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  struct Pin {
    std::int64_t round;
    std::uint64_t trace_id;
    int shard_of_3, shard_of_4, shard_of_7;
  };
  const std::vector<Pin> pins = {
      {0, 0xe220a8397b1dcdafULL, 1, 3, 2},
      {1, 0x910a2dec89025cc1ULL, 2, 1, 2},
      {7, 0x63cbe1e459320dd7ULL, 0, 3, 2},
      {42, 0xbdd732262feb6e95ULL, 1, 1, 5},
      {1000, 0x3c1eba8b4dccc148ULL, 1, 0, 0},
      {-1, 0xe4d971771b652c20ULL, 2, 0, 0},
      {kMin, 0x481ec0a212a9f3dbULL, 1, 3, 6},
      {kMax, 0x2a67d7552e039ea7ULL, 0, 3, 2},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(obs::trace_id_of(pin.round), pin.trace_id) << pin.round;
    EXPECT_EQ(serve::shard_of_round(pin.round, 3), pin.shard_of_3);
    EXPECT_EQ(serve::shard_of_round(pin.round, 4), pin.shard_of_4);
    EXPECT_EQ(serve::shard_of_round(pin.round, 7), pin.shard_of_7);
  }

  const auto sampled = [](std::int64_t rounds, std::int64_t every,
                          std::uint64_t seed) {
    std::vector<std::int64_t> out;
    for (std::int64_t round = 0; round < rounds; ++round) {
      if (serve::econ_probe_sampled(round, every, seed)) out.push_back(round);
    }
    return out;
  };
  EXPECT_EQ(sampled(200, 16, 0),
            (std::vector<std::int64_t>{6, 29, 38, 103, 131, 149, 155, 160,
                                       164, 175}));
  EXPECT_EQ(sampled(40, 4, 99),
            (std::vector<std::int64_t>{4, 5, 7, 8, 15, 16, 18, 25, 28, 32}));
}

}  // namespace
}  // namespace mcs
