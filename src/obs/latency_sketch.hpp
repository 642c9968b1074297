// Log-bucketed latency sketch for the live timing plane.
//
// An HDR-histogram-style sketch over nanosecond durations: values below 16
// are counted exactly, everything above lands in one of 16 linear
// sub-buckets per power of two, so the relative quantile error is bounded
// by 1/16 (6.25%) across the full uint64 range. Recording is a handful of
// relaxed atomic operations (no locks, no allocation), and record_ns(ns, n)
// records n equal samples for the price of one: the serve engine records
// queue waits once per stretch of a popped batch whose events share an
// enqueue stamp, not once per event. Snapshots are taken concurrently by
// the stats publisher thread.
//
// Sketches are mergeable (bucket-wise sums, associative and commutative),
// and snapshots additionally support delta_since() so a rolling window can
// subtract the cumulative sketch at the previous window edge. Quantile
// extraction converts the bucket counts into the same
// MetricsSnapshot::HistogramData shape the counter plane exports and
// reuses obs::estimate_quantile, so both planes share one definition of
// p50/p95/p99.
//
// This type is part of the wall-clock timing plane: it must never be
// registered in a MetricsRegistry that bench-diff gates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace mcs::obs {

namespace sketch_detail {
/// 16 sub-buckets per octave above the exact range [0, 16).
inline constexpr int kSubBuckets = 16;
/// Highest index is reached at v = 2^64 - 1 (bit width 64).
inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(kSubBuckets) * 61;  // 16 * (64 - 4 + 1)

/// Bucket index of a nanosecond value. Monotone in `ns`.
[[nodiscard]] std::size_t bucket_of(std::uint64_t ns) noexcept;
/// Largest value the bucket covers (inclusive; le-semantics upper edge).
[[nodiscard]] std::uint64_t bucket_upper_edge(std::size_t bucket) noexcept;
/// Smallest value the bucket covers.
[[nodiscard]] std::uint64_t bucket_lower_edge(std::size_t bucket) noexcept;
}  // namespace sketch_detail

/// Point-in-time copy of a sketch: a value type that can be merged,
/// subtracted (delta_since), and queried for quantiles.
struct LatencySketchSnapshot {
  /// Per-bucket counts, trimmed after the highest non-empty bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t count{0};
  double sum_ns{0.0};
  /// Exact observed extrema (cumulative snapshots). Deltas reconstruct
  /// them from the occupied bucket edges instead (documented 6.25% bound).
  std::uint64_t min_ns{0};
  std::uint64_t max_ns{0};

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : sum_ns / static_cast<double>(count);
  }

  /// Bucket-interpolated quantile in nanoseconds via estimate_quantile
  /// (NaN when empty, exact for a single sample).
  [[nodiscard]] double quantile_ns(double q) const;
  [[nodiscard]] double quantile_us(double q) const {
    return quantile_ns(q) / 1000.0;
  }

  /// Samples recorded between `earlier` and this snapshot, both taken from
  /// the same sketch (bucket-wise subtraction). Extrema of the delta are
  /// re-derived from its occupied bucket edges.
  [[nodiscard]] LatencySketchSnapshot delta_since(
      const LatencySketchSnapshot& earlier) const;

  /// Bucket-wise sum (associative, commutative) -- for aggregating shard
  /// sketches into an engine-wide view.
  void merge(const LatencySketchSnapshot& other);
};

/// The live, concurrently-written sketch. record_ns is safe from any
/// number of threads; snapshot() is safe concurrently with recording.
class LatencySketch {
 public:
  LatencySketch() = default;
  LatencySketch(const LatencySketch&) = delete;
  LatencySketch& operator=(const LatencySketch&) = delete;

  void record_ns(std::uint64_t ns) noexcept { record_ns(ns, 1); }
  /// `n` samples of `ns` at once (snapshot-identical to n record_ns(ns)
  /// calls); n == 0 records nothing.
  void record_ns(std::uint64_t ns, std::uint64_t n) noexcept;
  [[nodiscard]] LatencySketchSnapshot snapshot() const;
  /// Total samples recorded so far (cheaper than a full snapshot).
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, sketch_detail::kBucketCount>
      counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{~0ULL};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace mcs::obs
