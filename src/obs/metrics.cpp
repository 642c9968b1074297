#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace mcs::obs {

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      counts_(boundaries_.size() + 1, 0) {
  MCS_EXPECTS(std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
                  std::adjacent_find(boundaries_.begin(), boundaries_.end()) ==
                      boundaries_.end(),
              "histogram boundaries must be strictly increasing");
}

std::vector<double> Histogram::exponential_boundaries(double start,
                                                      double factor,
                                                      int count) {
  MCS_EXPECTS(start > 0.0 && factor > 1.0 && count >= 1,
              "exponential_boundaries requires start > 0, factor > 1, count >= 1");
  std::vector<double> boundaries;
  boundaries.reserve(static_cast<std::size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    boundaries.push_back(edge);
    edge *= factor;
  }
  return boundaries;
}

const std::vector<double>& Histogram::default_latency_boundaries_us() {
  static const std::vector<double> boundaries =
      exponential_boundaries(1.0, 2.0, 24);  // 1us .. ~8.4s
  return boundaries;
}

void Histogram::observe(double value) {
  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - boundaries_.begin());
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[bucket];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

std::int64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

void Histogram::merge(const Histogram& other) {
  MCS_EXPECTS(boundaries_ == other.boundaries_,
              "histogram merge requires identical boundaries");
  // Copy the source under its own lock first; never hold both locks at
  // once (no lock-order issue if a caller merges a/b and b/a concurrently).
  std::vector<std::int64_t> other_counts;
  std::int64_t other_count = 0;
  double other_sum = 0.0;
  double other_min = 0.0;
  double other_max = 0.0;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    other_counts = other.counts_;
    other_count = other.count_;
    other_sum = other.sum_;
    other_min = other.min_;
    other_max = other.max_;
  }
  if (other_count == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other_counts[i];
  }
  if (count_ == 0 || other_min < min_) min_ = other_min;
  if (count_ == 0 || other_max > max_) max_ = other_max;
  count_ += other_count;
  sum_ += other_sum;
}

// ------------------------------------------------------- MetricsRegistry

void MetricsRegistry::record_help(std::string_view name,
                                  std::string_view help) {
  // Caller holds mutex_. First non-empty description wins.
  if (help.empty()) return;
  if (help_.find(name) != help_.end()) return;
  help_.emplace(std::string(name), std::string(help));
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>* boundaries,
                                      std::string_view help) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record_help(name, help);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    MCS_EXPECTS(boundaries == nullptr ||
                    it->second->boundaries() == *boundaries,
                "histogram re-registered with different boundaries");
    return *it->second;
  }
  const std::vector<double>& edges =
      boundaries != nullptr ? *boundaries
                            : Histogram::default_latency_boundaries_us();
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(edges))
              .first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  MCS_EXPECTS(this != &other, "cannot merge a registry into itself");
  // Snapshot the source's instrument pointers under its lock, then record
  // into this registry through the normal (locking) accessors.
  std::vector<std::pair<std::string, const Counter*>> other_counters;
  std::vector<std::pair<std::string, const Gauge*>> other_gauges;
  std::vector<std::pair<std::string, const Histogram*>> other_histograms;
  std::vector<std::pair<std::string, std::string>> other_help;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, instrument] : other.counters_) {
      other_counters.emplace_back(name, instrument.get());
    }
    for (const auto& [name, instrument] : other.gauges_) {
      other_gauges.emplace_back(name, instrument.get());
    }
    for (const auto& [name, instrument] : other.histograms_) {
      other_histograms.emplace_back(name, instrument.get());
    }
    for (const auto& [name, text] : other.help_) {
      other_help.emplace_back(name, text);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, text] : other_help) record_help(name, text);
  }
  for (const auto& [name, instrument] : other_counters) {
    counter(name).add(instrument->value());
  }
  for (const auto& [name, instrument] : other_gauges) {
    Gauge& mine = gauge(name);
    if (!mine.has_value() && instrument->has_value()) {
      mine.set(instrument->value());
    }
  }
  for (const auto& [name, instrument] : other_histograms) {
    const std::vector<double> boundaries = instrument->boundaries();
    histogram(name, &boundaries).merge(*instrument);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, instrument] : counters_) {
    snap.counters[name] = instrument->value();
  }
  for (const auto& [name, instrument] : gauges_) {
    if (instrument->has_value()) snap.gauges[name] = instrument->value();
  }
  for (const auto& [name, instrument] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.boundaries = instrument->boundaries();
    data.bucket_counts = instrument->bucket_counts();
    data.count = instrument->count();
    data.sum = instrument->sum();
    data.min = instrument->min();
    data.max = instrument->max();
    snap.histograms[name] = std::move(data);
  }
  for (const auto& [name, text] : help_) snap.help[name] = text;
  return snap;
}

// ------------------------------------------------------------- quantiles

double estimate_quantile(const MetricsSnapshot::HistogramData& data,
                         double q) {
  if (data.count <= 0) return std::numeric_limits<double>::quiet_NaN();
  if (data.count == 1) return data.min;  // one sample: every quantile is it
  if (q <= 0.0) return data.min;
  if (q >= 1.0) return data.max;
  const double target = q * static_cast<double>(data.count);
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < data.bucket_counts.size(); ++b) {
    const std::int64_t prev = cumulative;
    cumulative += data.bucket_counts[b];
    if (static_cast<double>(cumulative) < target || data.bucket_counts[b] == 0) {
      continue;
    }
    // Bucket edges, tightened by the tracked extrema: the overflow bucket
    // has no upper boundary (use max) and a low-outlier min can undercut
    // boundaries[b-1], so clamp both edges into [min, max] before
    // interpolating -- otherwise an all-overflow histogram would
    // extrapolate past the largest recorded sample.
    double lower = b == 0 ? data.min : data.boundaries[b - 1];
    double upper = b < data.boundaries.size() ? data.boundaries[b] : data.max;
    lower = std::max(lower, data.min);
    upper = std::min(upper, data.max);
    if (!(upper > lower)) return std::clamp(lower, data.min, data.max);
    const double position = (target - static_cast<double>(prev)) /
                            static_cast<double>(data.bucket_counts[b]);
    const double estimate = lower + (upper - lower) * position;
    return std::clamp(estimate, data.min, data.max);
  }
  return data.max;  // unreachable when counts are consistent
}

// -------------------------------------------------- headline counter set

void preregister_headline_counters(MetricsRegistry& registry) {
  registry.counter("matching.hungarian.iterations",
                   "do-while relabel rounds inside the Hungarian augment_row");
  registry.counter("matching.hungarian.augmenting_paths",
                   "augmenting paths found by the Hungarian solver");
  registry.counter("auction.critical_value.probes",
                   "wins(b)? evaluations during critical-value search");
  registry.counter("auction.greedy.allocation_runs",
                   "Algorithm-1 (online greedy allocation) executions");
  registry.counter("auction.settlement.slots_walked",
                   "slot records read by Algorithm-2 displacement walks");
  registry.counter("auction.counterfactual.probe_forks",
                   "critical-value bisection probes forked at the bid's "
                   "arrival from the factual slot pool");
  registry.counter("auction.counterfactual.slots_replayed",
                   "slots stepped by probe forks (the suffix from the "
                   "fork point)");
  registry.counter("auction.counterfactual.slots_skipped",
                   "slots inherited from the factual run instead of "
                   "being replayed");
}

// ------------------------------------------------------ current registry

namespace {
thread_local MetricsRegistry* t_current_registry = nullptr;
}  // namespace

MetricsRegistry* current_registry() noexcept { return t_current_registry; }

ScopedRegistry::ScopedRegistry(MetricsRegistry* registry) noexcept
    : previous_(t_current_registry) {
  t_current_registry = registry;
}

ScopedRegistry::~ScopedRegistry() { t_current_registry = previous_; }

}  // namespace mcs::obs
