// Streaming statistics for experiment aggregation.
//
// Every figure in the paper's evaluation averages a metric over repeated
// simulation runs. RunningStats accumulates mean/variance in one pass
// (Welford), Summary additionally retains samples for quantiles, and
// confidence_interval_95 reports the half-width used in EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <vector>

namespace mcs {

/// One-pass mean / variance / extrema accumulator (Welford's algorithm:
/// numerically stable, O(1) memory).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Mean of the samples so far; requires at least one sample.
  [[nodiscard]] double mean() const;

  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

  /// Smallest / largest sample; require at least one sample.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Half-width of the 95% normal-approximation confidence interval of the
  /// mean; 0 for fewer than two samples.
  [[nodiscard]] double ci95_half_width() const;

 private:
  std::size_t count_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Retains all samples: everything RunningStats offers plus quantiles.
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }

  /// Quantile by linear interpolation on the sorted samples;
  /// q in [0, 1]; requires at least one sample.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  RunningStats stats_;
  mutable std::vector<double> samples_;
  mutable bool sorted_{true};
};

}  // namespace mcs
