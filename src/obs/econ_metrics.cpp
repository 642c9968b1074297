#include "obs/econ_metrics.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace mcs::obs {

double overpayment_ratio(Money total_payment, Money total_cost) {
  if (total_cost.is_zero()) return 0.0;
  const Money overpayment = total_payment - total_cost;
  return overpayment.ratio_to(total_cost);
}

double jain_fairness(const std::vector<Money>& payments) {
  // Work in double micro-units: payments are bounded by task values, and
  // fairness is a reporting ratio, not ledger arithmetic.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const Money& payment : payments) {
    const double micros = static_cast<double>(payment.micros());
    sum += micros;
    sum_sq += micros * micros;
  }
  if (payments.empty() || sum_sq == 0.0) return 1.0;
  const double n = static_cast<double>(payments.size());
  return (sum * sum) / (n * sum_sq);
}

double coverage_rate(std::int64_t allocated, std::int64_t total) {
  if (total <= 0) return 1.0;
  return static_cast<double>(allocated) / static_cast<double>(total);
}

std::uint64_t ratio_to_sketch_units(double ratio) {
  if (!std::isfinite(ratio) || ratio <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(ratio * 1e6));
}

double sketch_units_to_ratio(double units) { return units / 1e6; }

EconWindowStats EconWindowAggregator::roll(const EconCumulative& now) {
  MCS_EXPECTS(now.at_ns >= previous_.at_ns,
              "econ window sampled with a clock that went backwards");
  EconWindowStats window;
  window.index = next_index_++;
  window.begin_ns = previous_.at_ns;
  window.end_ns = now.at_ns;
  window.rounds = now.rounds - previous_.rounds;
  window.rounds_skipped = now.rounds_skipped - previous_.rounds_skipped;
  window.tasks = now.tasks - previous_.tasks;
  window.tasks_allocated = now.tasks_allocated - previous_.tasks_allocated;
  window.winners = now.winners - previous_.winners;
  window.payment_micros = now.payment_micros - previous_.payment_micros;
  window.claimed_cost_micros =
      now.claimed_cost_micros - previous_.claimed_cost_micros;
  window.second_price_payment_micros = now.second_price_payment_micros -
                                       previous_.second_price_payment_micros;
  window.vcg_payment_micros =
      now.vcg_payment_micros - previous_.vcg_payment_micros;
  window.vcg_rounds = now.vcg_rounds - previous_.vcg_rounds;
  window.probe_rounds = now.probe_rounds - previous_.probe_rounds;
  window.probe_checks = now.probe_checks - previous_.probe_checks;
  window.violations = now.violations - previous_.violations;
  window.fairness = now.fairness.delta_since(previous_.fairness);
  window.overpayment = now.overpayment.delta_since(previous_.overpayment);
  const double seconds = window.seconds();
  if (seconds > 0.0) {
    window.rounds_per_sec = static_cast<double>(window.rounds) / seconds;
  }
  window.coverage = coverage_rate(window.tasks_allocated, window.tasks);
  window.overpayment_ratio =
      overpayment_ratio(Money::from_micros(window.payment_micros),
                        Money::from_micros(window.claimed_cost_micros));
  previous_ = now;
  return window;
}

HealthState classify_econ_health(std::int64_t total_violations) {
  return total_violations > 0 ? HealthState::kDegradedEconomics
                              : HealthState::kHealthy;
}

}  // namespace mcs::obs
