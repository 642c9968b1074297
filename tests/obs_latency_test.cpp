// Tests for the wall-clock timing plane's building blocks: the
// log-bucketed latency sketch (bucket math, quantile error bound, merge
// associativity, window deltas), the estimate_quantile edge cases both
// planes share, the rolling-window aggregator, and the overload health
// classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "obs/metrics.hpp"
#include "obs/rolling_window.hpp"
#include "obs/wallclock.hpp"

namespace mcs::obs {
namespace {

// ------------------------------------------------------------ bucket math

TEST(LatencySketchBuckets, SmallValuesAreExact) {
  for (std::uint64_t ns = 0; ns < 16; ++ns) {
    const std::size_t bucket = sketch_detail::bucket_of(ns);
    EXPECT_EQ(bucket, ns);
    EXPECT_EQ(sketch_detail::bucket_lower_edge(bucket), ns);
    EXPECT_EQ(sketch_detail::bucket_upper_edge(bucket), ns);
  }
}

TEST(LatencySketchBuckets, EdgesBracketTheValueEverywhere) {
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 1; v != 0 && v <= (1ULL << 62); v <<= 1) {
    probes.push_back(v - 1);
    probes.push_back(v);
    probes.push_back(v + 1);
    probes.push_back(v + v / 3);
  }
  probes.push_back(~0ULL);
  std::sort(probes.begin(), probes.end());
  std::size_t last_bucket = 0;
  for (const std::uint64_t ns : probes) {
    const std::size_t bucket = sketch_detail::bucket_of(ns);
    ASSERT_LT(bucket, sketch_detail::kBucketCount) << "ns=" << ns;
    EXPECT_LE(sketch_detail::bucket_lower_edge(bucket), ns) << "ns=" << ns;
    EXPECT_GE(sketch_detail::bucket_upper_edge(bucket), ns) << "ns=" << ns;
    EXPECT_GE(bucket, last_bucket) << "bucket_of not monotone at ns=" << ns;
    last_bucket = bucket;
  }
}

TEST(LatencySketchBuckets, RelativeWidthIsBounded) {
  // Above the exact range every bucket spans < 1/16 of its lower edge --
  // the advertised 6.25% quantile resolution.
  for (std::size_t bucket = 16; bucket < sketch_detail::kBucketCount - 16;
       bucket += 7) {
    const double lower =
        static_cast<double>(sketch_detail::bucket_lower_edge(bucket));
    const double upper =
        static_cast<double>(sketch_detail::bucket_upper_edge(bucket));
    EXPECT_LE((upper - lower) / lower, 1.0 / 16.0) << "bucket=" << bucket;
  }
}

// -------------------------------------------------------------- recording

TEST(LatencySketch, SingleSampleQuantilesAreExact) {
  LatencySketch sketch;
  sketch.record_ns(777);
  const LatencySketchSnapshot snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 777u);
  EXPECT_EQ(snap.max_ns, 777u);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile_ns(q), 777.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.5), 0.777);
}

TEST(LatencySketch, EmptySketchHasNaNQuantiles) {
  LatencySketch sketch;
  const LatencySketchSnapshot snap = sketch.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_TRUE(std::isnan(snap.quantile_ns(0.5)));
  EXPECT_EQ(snap.counts.size(), 0u);
}

TEST(LatencySketch, QuantileErrorStaysWithinTheBucketBound) {
  LatencySketch sketch;
  for (std::uint64_t ns = 1; ns <= 10'000; ++ns) sketch.record_ns(ns);
  const LatencySketchSnapshot snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 10'000u);
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = q * 10'000.0;
    const double estimate = snap.quantile_ns(q);
    EXPECT_NEAR(estimate, exact, exact / 16.0 + 1.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.quantile_ns(1.0), 10'000.0);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 5000.5);
}

TEST(LatencySketch, IdenticalSamplesCollapseToTheirValue) {
  // min == max clamps the interpolation: every quantile is the value.
  LatencySketch sketch;
  for (int i = 0; i < 1000; ++i) sketch.record_ns(123'456);
  const LatencySketchSnapshot snap = sketch.snapshot();
  for (const double q : {0.01, 0.5, 0.999}) {
    EXPECT_DOUBLE_EQ(snap.quantile_ns(q), 123'456.0) << "q=" << q;
  }
}

// ------------------------------------------------------- merge and deltas

LatencySketchSnapshot sketch_of(const std::vector<std::uint64_t>& values) {
  LatencySketch sketch;
  for (const std::uint64_t v : values) sketch.record_ns(v);
  return sketch.snapshot();
}

void expect_same(const LatencySketchSnapshot& a,
                 const LatencySketchSnapshot& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum_ns, b.sum_ns);
  EXPECT_EQ(a.min_ns, b.min_ns);
  EXPECT_EQ(a.max_ns, b.max_ns);
}

TEST(LatencySketch, MergeIsAssociativeAndCommutative) {
  const LatencySketchSnapshot a = sketch_of({3, 900, 70'000});
  const LatencySketchSnapshot b = sketch_of({1'000'000});
  const LatencySketchSnapshot c = sketch_of({12, 12, 5'000'000'000ULL});

  LatencySketchSnapshot ab_c = a;  // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  LatencySketchSnapshot bc = b;  // a + (b + c)
  bc.merge(c);
  LatencySketchSnapshot a_bc = a;
  a_bc.merge(bc);
  expect_same(ab_c, a_bc);

  LatencySketchSnapshot cba = c;  // reversed order
  cba.merge(b);
  cba.merge(a);
  expect_same(ab_c, cba);

  EXPECT_EQ(ab_c.count, 7u);
  EXPECT_EQ(ab_c.min_ns, 3u);
  EXPECT_EQ(ab_c.max_ns, 5'000'000'000ULL);
}

TEST(LatencySketch, MergeWithEmptyIsIdentity) {
  const LatencySketchSnapshot a = sketch_of({42, 99});
  LatencySketchSnapshot merged = a;
  merged.merge(LatencySketchSnapshot{});
  expect_same(merged, a);
  LatencySketchSnapshot onto_empty;
  onto_empty.merge(a);
  expect_same(onto_empty, a);
}

TEST(LatencySketch, CountedRecordEqualsRepeatedRecords) {
  // record_ns(ns, n) is how the serve engine records a stretch of equal
  // queue waits: its snapshot must be exactly n single records.
  LatencySketch counted;
  LatencySketch repeated;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> stretches = {
      {7, 3}, {123'456, 64}, {3, 1}, {5'000'000'000ULL, 2}, {900, 0}};
  for (const auto& [ns, n] : stretches) {
    counted.record_ns(ns, n);
    for (std::uint64_t i = 0; i < n; ++i) repeated.record_ns(ns);
  }
  expect_same(counted.snapshot(), repeated.snapshot());
  EXPECT_EQ(counted.count(), 70u);
  // n == 0 records nothing, extrema included.
  LatencySketch none;
  none.record_ns(42, 0);
  expect_same(none.snapshot(), LatencySketch{}.snapshot());
}

TEST(LatencySketch, DeltaSinceIsolatesTheWindow) {
  LatencySketch sketch;
  sketch.record_ns(5);
  sketch.record_ns(10);
  const LatencySketchSnapshot earlier = sketch.snapshot();
  sketch.record_ns(7);
  sketch.record_ns(7);
  sketch.record_ns(2'000);
  const LatencySketchSnapshot later = sketch.snapshot();

  const LatencySketchSnapshot delta = later.delta_since(earlier);
  EXPECT_EQ(delta.count, 3u);
  EXPECT_DOUBLE_EQ(delta.sum_ns, 2'014.0);
  // Delta extrema come from occupied bucket edges; 7 is exact, 2000 is
  // bracketed by its bucket.
  EXPECT_EQ(delta.min_ns, 7u);
  EXPECT_LE(delta.max_ns, sketch_detail::bucket_upper_edge(
                              sketch_detail::bucket_of(2'000)));
  EXPECT_GE(delta.max_ns, 2'000u);
}

TEST(LatencySketch, DeltaOfIdenticalSnapshotsIsEmpty) {
  const LatencySketchSnapshot snap = sketch_of({50, 60});
  const LatencySketchSnapshot delta = snap.delta_since(snap);
  EXPECT_TRUE(delta.empty());
  EXPECT_TRUE(std::isnan(delta.quantile_ns(0.5)));
}

TEST(LatencySketch, DeltaOfATornSnapshotHasNoBucketToBoundItsExtrema) {
  // snapshot() reads the buckets before count_, so one taken while a
  // record_ns is in flight can count a sample whose bucket it missed. The
  // pair below is that case built by hand: one more sample, no bucket grown.
  const LatencySketchSnapshot earlier = sketch_of({50, 60});
  LatencySketchSnapshot torn = earlier;
  torn.count += 1;
  torn.sum_ns += 70.0;

  const LatencySketchSnapshot delta = torn.delta_since(earlier);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_TRUE(delta.counts.empty());
  EXPECT_EQ(delta.min_ns, 0u);
  EXPECT_EQ(delta.max_ns, 0u);
}

// --------------------------------------- estimate_quantile edge hardening

TEST(EstimateQuantile, EmptyHistogramIsNaN) {
  MetricsSnapshot::HistogramData data;
  data.boundaries = {10.0, 20.0};
  data.bucket_counts = {0, 0, 0};
  data.count = 0;
  EXPECT_TRUE(std::isnan(estimate_quantile(data, 0.5)));
}

TEST(EstimateQuantile, SingleSampleReturnsItForEveryQ) {
  MetricsSnapshot::HistogramData data;
  data.boundaries = {10.0, 20.0};
  data.bucket_counts = {0, 1, 0};
  data.count = 1;
  data.min = 17.0;
  data.max = 17.0;
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(estimate_quantile(data, q), 17.0) << "q=" << q;
  }
}

TEST(EstimateQuantile, AllOverflowBucketStaysWithinObservedRange) {
  // Every sample beyond the last boundary: the overflow bucket has no
  // upper edge, so the estimate must be closed by the tracked extrema.
  MetricsSnapshot::HistogramData data;
  data.boundaries = {10.0, 20.0};
  data.bucket_counts = {0, 0, 8};
  data.count = 8;
  data.min = 25.0;
  data.max = 30.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double estimate = estimate_quantile(data, q);
    EXPECT_GE(estimate, 25.0) << "q=" << q;
    EXPECT_LE(estimate, 30.0) << "q=" << q;
  }
}

TEST(EstimateQuantile, DegenerateBucketEdgesDoNotInventValues) {
  // min == max collapses the only occupied bucket to a point.
  MetricsSnapshot::HistogramData data;
  data.boundaries = {10.0};
  data.bucket_counts = {0, 4};
  data.count = 4;
  data.min = 15.0;
  data.max = 15.0;
  EXPECT_DOUBLE_EQ(estimate_quantile(data, 0.5), 15.0);
}

// ---------------------------------------------------------------- windows

LiveCumulative cumulative_at(std::uint64_t at_ns, std::int64_t submitted,
                             std::int64_t processed, std::int64_t rejected) {
  LiveCumulative sample;
  sample.at_ns = at_ns;
  sample.submitted = submitted;
  sample.processed = processed;
  sample.rejected = rejected;
  return sample;
}

TEST(RollingWindow, DeltasRatesAndMonotoneIndices) {
  RollingWindowAggregator agg(0, 8);
  EXPECT_EQ(agg.next_index(), 0);

  const WindowStats w0 = agg.roll(cumulative_at(1'000'000'000ULL, 100, 90, 0));
  EXPECT_EQ(w0.index, 0);
  EXPECT_EQ(w0.begin_ns, 0u);
  EXPECT_EQ(w0.end_ns, 1'000'000'000ULL);
  EXPECT_EQ(w0.processed, 90);
  EXPECT_DOUBLE_EQ(w0.events_per_sec, 90.0);
  EXPECT_DOUBLE_EQ(w0.reject_rate, 0.0);

  const WindowStats w1 =
      agg.roll(cumulative_at(3'000'000'000ULL, 200, 150, 25));
  EXPECT_EQ(w1.index, 1);
  EXPECT_EQ(w1.submitted, 100);
  EXPECT_EQ(w1.processed, 60);
  EXPECT_EQ(w1.rejected, 25);
  EXPECT_DOUBLE_EQ(w1.events_per_sec, 30.0);  // 60 over 2 s
  EXPECT_DOUBLE_EQ(w1.reject_rate, 0.2);      // 25 / 125 offered
  EXPECT_EQ(agg.next_index(), 2);
}

TEST(RollingWindow, SameInputsSameWindows) {
  const auto run = [] {
    RollingWindowAggregator agg(0, 4);
    std::vector<WindowStats> out;
    for (int i = 1; i <= 5; ++i) {
      out.push_back(agg.roll(cumulative_at(
          static_cast<std::uint64_t>(i) * std::uint64_t{500'000'000},
          20 * i, 18 * i, i)));
    }
    return out;
  };
  const std::vector<WindowStats> a = run();
  const std::vector<WindowStats> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].processed, b[i].processed);
    EXPECT_DOUBLE_EQ(a[i].events_per_sec, b[i].events_per_sec);
    EXPECT_DOUBLE_EQ(a[i].reject_rate, b[i].reject_rate);
  }
}

TEST(RollingWindow, CapacityTrimsOldestButIndicesKeepCounting) {
  RollingWindowAggregator agg(0, 2);
  for (int i = 1; i <= 5; ++i) {
    agg.roll(cumulative_at(static_cast<std::uint64_t>(i), i, i, 0));
  }
  ASSERT_EQ(agg.windows().size(), 2u);
  EXPECT_EQ(agg.windows().front().index, 3);
  EXPECT_EQ(agg.windows().back().index, 4);
  EXPECT_EQ(agg.next_index(), 5);
}

TEST(RollingWindow, ZeroSpanWindowHasZeroRates) {
  RollingWindowAggregator agg(0, 4);
  const WindowStats w = agg.roll(cumulative_at(0, 10, 10, 0));
  EXPECT_DOUBLE_EQ(w.events_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(w.rounds_per_sec, 0.0);
}

// ----------------------------------------------------------------- health

WindowStats window_with(std::int64_t processed, std::int64_t queue_depth,
                        std::int64_t watermark, double reject_rate) {
  WindowStats w;
  w.processed = processed;
  w.queue_depth = queue_depth;
  w.queue_watermark = watermark;
  w.reject_rate = reject_rate;
  return w;
}

TEST(HealthClassifier, EmptyAndQuietWindowsAreHealthy) {
  EXPECT_EQ(classify_health({}, 100), HealthState::kHealthy);
  std::deque<WindowStats> windows;
  windows.push_back(window_with(50, 0, 3, 0.0));
  windows.push_back(window_with(40, 1, 2, 0.0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, SheddingFiresOnTheLastWindowAlone) {
  std::deque<WindowStats> windows;
  windows.push_back(window_with(50, 0, 3, 0.2));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kShedding);
  // A recovered window clears it even with shedding history behind it.
  windows.push_back(window_with(50, 0, 3, 0.0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, SaturationNeedsDwell) {
  std::deque<WindowStats> windows;
  windows.push_back(window_with(50, 10, 80, 0.0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kHealthy)
      << "one hot window is not an incident";
  windows.push_back(window_with(50, 10, 90, 0.0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kSaturated);
  // Capacity matters: the same watermarks against a huge queue are fine.
  EXPECT_EQ(classify_health(windows, 1'000'000), HealthState::kHealthy);
}

TEST(HealthClassifier, StalledNeedsBacklogAndNoProgress) {
  std::deque<WindowStats> windows;
  windows.push_back(window_with(0, 5, 5, 0.0));
  windows.push_back(window_with(0, 5, 5, 0.0));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kStalled);
  // Any forward progress in the dwell breaks the stall.
  windows.back().processed = 1;
  EXPECT_NE(classify_health(windows, 100), HealthState::kStalled);
  // An empty queue that processes nothing is idle, not stalled.
  std::deque<WindowStats> idle;
  idle.push_back(window_with(0, 0, 0, 0.0));
  idle.push_back(window_with(0, 0, 0, 0.0));
  EXPECT_EQ(classify_health(idle, 100), HealthState::kHealthy);
}

TEST(HealthClassifier, StalledOutranksSheddingOutranksSaturated) {
  std::deque<WindowStats> windows;
  windows.push_back(window_with(0, 90, 95, 0.5));
  windows.push_back(window_with(0, 90, 95, 0.5));
  EXPECT_EQ(classify_health(windows, 100), HealthState::kStalled);
  windows.back().processed = 1;  // not stalled; still shedding + saturated
  EXPECT_EQ(classify_health(windows, 100), HealthState::kShedding);
  windows.back().reject_rate = 0.0;  // saturation remains
  EXPECT_EQ(classify_health(windows, 100), HealthState::kSaturated);

  EXPECT_EQ(worse(HealthState::kHealthy, HealthState::kSaturated),
            HealthState::kSaturated);
  EXPECT_EQ(worse(HealthState::kStalled, HealthState::kShedding),
            HealthState::kStalled);
  EXPECT_EQ(to_string(HealthState::kStalled), "stalled");
}

// ------------------------------------------------------------- fake clock

TEST(FakeClock, AdvancesMonotonically) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_ns(), 100u);
  clock.advance_ns(5);
  EXPECT_EQ(clock.now_ns(), 105u);
  clock.advance_ms(2);
  EXPECT_EQ(clock.now_ns(), 2'000'105u);
}

}  // namespace
}  // namespace mcs::obs
