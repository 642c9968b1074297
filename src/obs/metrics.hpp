// Telemetry metrics: counters, gauges, and fixed-bucket histograms.
//
// The paper argues for its mechanisms on computational-efficiency grounds
// (Theorems 3 and 7); this registry is how the repo observes where the work
// goes. Design constraints, in order:
//
//  1. Zero cost when disabled. Nothing is recorded unless a registry has
//     been installed for the current thread (ScopedRegistry); the fast path
//     of every helper is one thread-local load and a branch, so hot loops
//     (Hungarian relabels, SPFA pops) can instrument unconditionally.
//  2. Deterministic parallel reduction. Each arena worker and each serve
//     shard records into its own registry; merge() is associative and
//     commutative for counters and histograms (sums), so the reduced
//     counters are identical to a single-threaded run over the same
//     work.
//  3. Thread safety anyway. A registry may be shared (the CLI installs one
//     registry for the whole process lifetime), so individual instruments
//     are safe for concurrent recording.
//
// Naming convention (docs/observability.md): dot-separated lowercase
// "<layer>.<component>.<what>", e.g. "matching.hungarian.iterations".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::obs {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written instantaneous value (e.g. a configuration knob or pool
/// size snapshot). merge() keeps the destination's value when both sides
/// were ever set ("first writer wins" along the reduction order), which is
/// associative.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_value() const noexcept {
    return set_.load(std::memory_order_relaxed);
  }
  /// Last set value; 0.0 when never set.
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Fixed-bucket histogram (Prometheus "le" semantics: bucket i counts
/// samples <= boundaries[i]; one implicit overflow bucket catches the
/// rest). Also tracks count/sum/min/max. Boundaries are fixed at creation
/// so two histograms of the same name always merge exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries);

  /// boundaries [start, start*factor, ...], `count` of them, for latency
  /// metrics spanning several orders of magnitude.
  [[nodiscard]] static std::vector<double> exponential_boundaries(
      double start, double factor, int count);

  /// Default boundaries for microsecond latencies: 1us .. ~8.4s, x2 steps.
  [[nodiscard]] static const std::vector<double>& default_latency_boundaries_us();

  void observe(double value);

  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }
  /// Per-bucket counts; size() == boundaries().size() + 1 (overflow last).
  [[nodiscard]] std::vector<std::int64_t> bucket_counts() const;
  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] double sum() const;
  /// Extrema; only meaningful when count() > 0.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Adds another histogram's samples; boundaries must match exactly.
  void merge(const Histogram& other);

 private:
  std::vector<double> boundaries_;  // strictly increasing
  mutable std::mutex mutex_;
  std::vector<std::int64_t> counts_;  // boundaries_.size() + 1
  std::int64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Snapshot of a whole registry, ordered by name (deterministic export).
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> boundaries;
    std::vector<std::int64_t> bucket_counts;
    std::int64_t count{0};
    double sum{0.0};
    double min{0.0};
    double max{0.0};
  };

  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  /// Per-metric descriptions (only metrics registered with a help text).
  std::map<std::string, std::string> help;
};

/// Thread-safe name -> instrument store. Instrument references returned by
/// counter()/gauge()/histogram() stay valid for the registry's lifetime, so
/// hot paths can look up once and record many times.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `help` is an optional one-line description for exporters (Prometheus
  /// "# HELP"); the first non-empty help registered for a name wins.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// First call for a name fixes the boundaries; later calls (and merges)
  /// must agree. Defaults to the microsecond latency buckets.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>* boundaries = nullptr,
                       std::string_view help = {});

  /// Folds `other` into this registry (sums counters and histograms; keeps
  /// already-set gauges). Associative and commutative on counters and
  /// histograms -- the parallel-reduction identity.
  void merge(const MetricsRegistry& other);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  void record_help(std::string_view name, std::string_view help);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

/// Bucket-interpolated quantile estimate over an exported histogram
/// (Prometheus histogram_quantile semantics, sharpened by the tracked
/// extrema): the quantile rank is located in the cumulative bucket counts
/// and interpolated linearly within its bucket. The first bucket's lower
/// edge is the observed min, the overflow bucket's upper edge the observed
/// max, and the result is clamped to [min, max]. q <= 0 returns min,
/// q >= 1 returns max; an empty histogram returns NaN.
[[nodiscard]] double estimate_quantile(
    const MetricsSnapshot::HistogramData& data, double q);

/// Registers the headline work counters (with their descriptions) so every
/// telemetry report carries the same schema keys regardless of which code
/// paths ran -- a zero then means "not exercised", never "metric removed".
/// The CLI and the bench telemetry mains all call this; bench-diff relies
/// on the stable key set.
void preregister_headline_counters(MetricsRegistry& registry);

/// Registry installed for the current thread, or nullptr (telemetry off).
[[nodiscard]] MetricsRegistry* current_registry() noexcept;

/// RAII install/restore of the current thread's registry. Nests; each scope
/// restores whatever was installed before it. Passing nullptr disables
/// telemetry within the scope.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry* registry) noexcept;
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Adds to a counter of the installed registry; no-op when telemetry is
/// off. For tight loops prefer caching the Counter& once per call.
inline void count(std::string_view name, std::int64_t n = 1) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->counter(name).add(n);
  }
}

/// Records into a histogram of the installed registry; no-op when off.
inline void observe(std::string_view name, double value) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->histogram(name).observe(value);
  }
}

/// Sets a gauge of the installed registry; no-op when off.
inline void set_gauge(std::string_view name, double value) {
  if (MetricsRegistry* registry = current_registry()) {
    registry->gauge(name).set(value);
  }
}

}  // namespace mcs::obs
