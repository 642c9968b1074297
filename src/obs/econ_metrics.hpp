// Economic metrics primitives for the live mechanism-health plane.
//
// The paper's headline claims are economic -- truthfulness (Theorem 4),
// individual rationality (Theorems 2/5), bounded overpayment (Figs. 9-11)
// -- yet the rest of src/obs watches *systems* signals only. This header
// is the economics vocabulary shared by the offline analysis layer and
// the live serve plane: exact-Money-in, double-out summary statistics
// (overpayment ratio, Jain payment fairness, task coverage) plus the
// cumulative-sample / rolling-window machinery that turns per-round
// observations into per-window deltas, mirroring obs/rolling_window.hpp
// and reusing the LatencySketch for ratio distributions.
//
// Layering: this file sits in obs and speaks only common vocabulary
// (Money, integers). Scenario-aware per-round computation lives in
// analysis/; the serve-side recording lives in serve/econ_telemetry.hpp.
//
// Everything windowed here is wall-clock territory: none of it may feed
// the deterministic counter plane that bench-diff gates. The single
// exception -- the `econ.violations` registry counter -- is bumped by the
// sentinel in serve/econ_telemetry.cpp only when an invariant actually
// breaks, so truthful traffic leaves the counter plane untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/money.hpp"
#include "obs/latency_sketch.hpp"
#include "obs/rolling_window.hpp"

namespace mcs::obs {

// ------------------------------------------------------- pure econ math

/// Overpayment ratio sigma = (payment - cost) / cost (Definition 11).
/// Exact-Money inputs; 0.0 when cost is zero (no winners, no sigma).
[[nodiscard]] double overpayment_ratio(Money total_payment, Money total_cost);

/// Jain's fairness index over a payment vector:
/// (sum x)^2 / (n * sum x^2). 1.0 = perfectly even, 1/n = one phone takes
/// everything. Empty or all-zero vectors return 1.0 (nothing was uneven).
[[nodiscard]] double jain_fairness(const std::vector<Money>& payments);

/// Task coverage: allocated / total; 1.0 when there were no tasks.
[[nodiscard]] double coverage_rate(std::int64_t allocated, std::int64_t total);

// ------------------------------------------- ratio <-> sketch conversion

/// Dimensionless ratios ride in LatencySketch buckets as micro-ratios
/// (ratio * 1e6 rounded), the same fixed-point scale Money uses, so one
/// sketch implementation serves both planes. Negative ratios clamp to 0
/// (the sketch is unsigned; economically sane ratios are nonnegative).
[[nodiscard]] std::uint64_t ratio_to_sketch_units(double ratio);

/// Inverse of ratio_to_sketch_units for quantile readouts.
[[nodiscard]] double sketch_units_to_ratio(double units);

// ------------------------------------------------ cumulative + windows

/// Cumulative economic totals of one lane (e.g. one serve shard) at a
/// sample instant. All fields are monotone; Money totals travel as exact
/// micro counts so window deltas subtract exactly.
struct EconCumulative {
  std::uint64_t at_ns{0};
  std::int64_t rounds{0};          ///< rounds observed by the econ plane
  std::int64_t rounds_skipped{0};  ///< closed rounds the plane could not audit
  std::int64_t tasks{0};
  std::int64_t tasks_allocated{0};
  std::int64_t winners{0};
  std::int64_t payment_micros{0};       ///< sum of payments (exact micros)
  std::int64_t claimed_cost_micros{0};  ///< sum of winners' claimed costs
  /// Reference payment under the per-slot second-price baseline.
  std::int64_t second_price_payment_micros{0};
  /// Reference payment under offline VCG (small rounds only).
  std::int64_t vcg_payment_micros{0};
  std::int64_t vcg_rounds{0};    ///< rounds the VCG reference covered
  std::int64_t probe_rounds{0};  ///< rounds the deep sentinel sampled
  std::int64_t probe_checks{0};  ///< individual winner probes executed
  std::int64_t violations{0};    ///< sentinel violations (any kind)
  LatencySketchSnapshot fairness;     ///< per-round Jain index, micro-scaled
  LatencySketchSnapshot overpayment;  ///< per-round sigma, micro-scaled
};

/// One closed econ window: deltas between two cumulative samples plus the
/// ratios derived from the deltas.
struct EconWindowStats {
  std::int64_t index{0};
  std::uint64_t begin_ns{0};
  std::uint64_t end_ns{0};
  std::int64_t rounds{0};
  std::int64_t rounds_skipped{0};
  std::int64_t tasks{0};
  std::int64_t tasks_allocated{0};
  std::int64_t winners{0};
  std::int64_t payment_micros{0};
  std::int64_t claimed_cost_micros{0};
  std::int64_t second_price_payment_micros{0};
  std::int64_t vcg_payment_micros{0};
  std::int64_t vcg_rounds{0};
  std::int64_t probe_rounds{0};
  std::int64_t probe_checks{0};
  std::int64_t violations{0};
  double rounds_per_sec{0.0};
  double coverage{0.0};            ///< tasks_allocated / tasks of the window
  double overpayment_ratio{0.0};   ///< sigma over the window's money deltas
  LatencySketchSnapshot fairness;     ///< per-round samples in the window
  LatencySketchSnapshot overpayment;  ///< per-round samples in the window

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
};

/// Turns successive EconCumulative samples into EconWindowStats -- the
/// economic twin of RollingWindowAggregator, minus the window ring (econ
/// health is sticky and needs no history). Single-threaded by design: only
/// the stats publisher rolls it.
class EconWindowAggregator {
 public:
  /// Closes the window [previous sample, now] and returns it. `now.at_ns`
  /// must not precede the previous sample. The first window starts at 0.
  EconWindowStats roll(const EconCumulative& now);

 private:
  EconCumulative previous_;
  std::int64_t next_index_{0};
};

/// Economic health of one lane: any sentinel violation -- ever -- means
/// the mechanism is mispriced, so the state is sticky (degraded economics
/// cannot heal by waiting; it names a correctness bug, not load).
[[nodiscard]] HealthState classify_econ_health(std::int64_t total_violations);

}  // namespace mcs::obs
