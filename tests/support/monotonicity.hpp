// Allocation-monotonicity auditing (Definition 10) -- a test oracle.
//
// The online mechanism's truthfulness proof rests on monotonicity: a
// winning bid must keep winning under any "improvement" -- an earlier
// reported arrival, a later reported departure, or a lower claimed cost.
// The auditor takes every winner of the greedy allocation and re-runs it
// under a grid of improved bids; any improvement that loses is a violation.
// (Improvements here ignore the true profile on purpose: monotonicity is a
// property of the allocation *rule*, not of what reports are legal.)
#pragma once

#include <string>
#include <vector>

#include "auction/online_greedy.hpp"
#include "model/scenario.hpp"

namespace mcs::analysis {

struct MonotonicityOptions {
  Slot::rep_type max_arrival_earlier = 3;   ///< probe arrivals a-1 .. a-max
  Slot::rep_type max_departure_later = 3;   ///< probe departures d+1 .. d+max
  std::vector<double> cost_factors{0.0, 0.25, 0.5, 0.9};  ///< probe b * f
};

struct MonotonicityViolation {
  PhoneId phone{0};
  model::Bid original_bid{SlotInterval::of(1, 1), Money{}};
  model::Bid improved_bid{SlotInterval::of(1, 1), Money{}};
};

struct MonotonicityReport {
  int winners_checked{0};
  int improvements_tested{0};
  std::vector<MonotonicityViolation> violations;

  [[nodiscard]] bool monotone() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Audits the greedy allocation rule (Algorithm 1) on one instance.
[[nodiscard]] MonotonicityReport audit_greedy_monotonicity(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {},
    const MonotonicityOptions& options = {});

}  // namespace mcs::analysis
