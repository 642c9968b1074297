#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mcs {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  MCS_EXPECTS(count_ > 0, "mean() of empty RunningStats");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  MCS_EXPECTS(count_ > 0, "min() of empty RunningStats");
  return min_;
}

double RunningStats::max() const {
  MCS_EXPECTS(count_ > 0, "max() of empty RunningStats");
  return max_;
}

double RunningStats::ci95_half_width() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

void Summary::add(double x) {
  stats_.add(x);
  samples_.push_back(x);
  sorted_ = false;
}

double Summary::quantile(double q) const {
  MCS_EXPECTS(!samples_.empty(), "quantile() of empty Summary");
  MCS_EXPECTS(q >= 0.0 && q <= 1.0, "quantile requires q in [0,1]");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace mcs
