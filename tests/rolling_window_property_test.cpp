// Property test for RollingWindowAggregator: under randomized increment
// sizes, randomized (including zero-span) sample timings, and capacities
// small enough to force ring trims, the per-window deltas must always sum
// back to the cumulative totals -- no event is ever lost or double-counted
// by the windowing, and the windows chain gaplessly in time.
#include "obs/rolling_window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "obs/econ_metrics.hpp"
#include "obs/latency_sketch.hpp"

namespace mcs::obs {
namespace {

struct FoldedTotals {
  std::int64_t submitted{0};
  std::int64_t processed{0};
  std::int64_t rejected{0};
  std::int64_t rounds_closed{0};
  std::uint64_t wait_samples{0};
  std::uint64_t latency_samples{0};
};

TEST(RollingWindowProperty, WindowDeltasSumToCumulativeTotals) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> small(0, 7);
  std::uniform_int_distribution<std::uint64_t> advance(0, 2'000'000'000ULL);
  std::uniform_int_distribution<std::uint64_t> sample_ns(1, 5'000'000ULL);
  std::uniform_int_distribution<std::size_t> capacity_of(1, 5);

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t capacity = capacity_of(rng);
    RollingWindowAggregator aggregator(0, capacity);
    LatencySketch wait;
    LatencySketch latency;
    LiveCumulative cumulative;
    FoldedTotals folded;
    std::uint64_t previous_end = 0;
    const int rolls = 40;  // >> capacity: every trial trims the ring

    for (int roll = 0; roll < rolls; ++roll) {
      // Monotone counters grow by random amounts; sketches get a random
      // number of samples; time advances by a random (possibly zero) span.
      const int new_processed = small(rng);
      cumulative.submitted += small(rng);
      cumulative.processed += new_processed;
      cumulative.rejected += small(rng);
      cumulative.rounds_closed += small(rng);
      cumulative.queue_depth = small(rng);
      cumulative.window_watermark = cumulative.queue_depth + small(rng);
      for (int s = 0; s < new_processed; ++s) wait.record_ns(sample_ns(rng));
      for (int s = 0; s < small(rng); ++s) latency.record_ns(sample_ns(rng));
      cumulative.queue_wait = wait.snapshot();
      cumulative.round_latency = latency.snapshot();
      cumulative.at_ns += advance(rng);

      const WindowStats& window = aggregator.roll(cumulative);
      EXPECT_EQ(window.index, roll);
      EXPECT_EQ(window.begin_ns, previous_end) << "windows chain gaplessly";
      EXPECT_EQ(window.end_ns, cumulative.at_ns);
      EXPECT_GE(window.submitted, 0);
      EXPECT_GE(window.processed, 0);
      if (window.seconds() > 0.0) {
        EXPECT_NEAR(window.events_per_sec * window.seconds(),
                    static_cast<double>(window.processed), 1e-6);
      } else {
        EXPECT_DOUBLE_EQ(window.events_per_sec, 0.0)
            << "zero-span windows must not divide by zero";
      }
      previous_end = window.end_ns;

      folded.submitted += window.submitted;
      folded.processed += window.processed;
      folded.rejected += window.rejected;
      folded.rounds_closed += window.rounds_closed;
      folded.wait_samples += window.queue_wait.count;
      folded.latency_samples += window.round_latency.count;
    }

    // The conservation law: folding every window delta reproduces the
    // cumulative totals exactly, trims notwithstanding (the ring only
    // bounds *retention*, never the deltas handed back by roll()).
    EXPECT_EQ(folded.submitted, cumulative.submitted);
    EXPECT_EQ(folded.processed, cumulative.processed);
    EXPECT_EQ(folded.rejected, cumulative.rejected);
    EXPECT_EQ(folded.rounds_closed, cumulative.rounds_closed);
    EXPECT_EQ(folded.wait_samples, cumulative.queue_wait.count);
    EXPECT_EQ(folded.latency_samples, cumulative.round_latency.count);
    EXPECT_LE(aggregator.windows().size(), capacity);
    EXPECT_EQ(aggregator.next_index(), rolls);
  }
}

TEST(RollingWindowProperty, EconAggregatorObeysTheSameConservationLaw) {
  // The economic twin must satisfy the identical fold-back property for
  // its Money counters (exact micros) and ratio sketches.
  std::mt19937 rng(424242);
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<std::int64_t> micros(0, 9'000'000);
  std::uniform_int_distribution<std::uint64_t> advance(0, 3'000'000'000ULL);

  for (int trial = 0; trial < 10; ++trial) {
    EconWindowAggregator aggregator;
    LatencySketch fairness;
    EconCumulative cumulative;
    std::int64_t folded_rounds = 0;
    std::int64_t folded_payment = 0;
    std::int64_t folded_violations = 0;
    std::uint64_t folded_fairness = 0;

    for (int roll = 0; roll < 25; ++roll) {
      cumulative.rounds += small(rng);
      cumulative.payment_micros += micros(rng);
      cumulative.claimed_cost_micros += micros(rng);
      cumulative.violations += small(rng) == 0 ? 1 : 0;
      for (int s = 0; s < small(rng); ++s) {
        fairness.record_ns(ratio_to_sketch_units(0.5));
      }
      cumulative.fairness = fairness.snapshot();
      cumulative.at_ns += advance(rng);

      const EconWindowStats& window = aggregator.roll(cumulative);
      folded_rounds += window.rounds;
      folded_payment += window.payment_micros;
      folded_violations += window.violations;
      folded_fairness += window.fairness.count;
    }

    EXPECT_EQ(folded_rounds, cumulative.rounds);
    EXPECT_EQ(folded_payment, cumulative.payment_micros);
    EXPECT_EQ(folded_violations, cumulative.violations);
    EXPECT_EQ(folded_fairness, cumulative.fairness.count);
  }
}

}  // namespace
}  // namespace mcs::obs
