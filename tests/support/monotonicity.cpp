#include "support/monotonicity.hpp"

#include <algorithm>
#include <sstream>

namespace mcs::analysis {

std::string MonotonicityReport::summary() const {
  std::ostringstream os;
  os << "checked " << winners_checked << " winners, " << improvements_tested
     << " improvements: ";
  if (monotone()) {
    os << "allocation rule is monotone";
  } else {
    os << violations.size() << " improvements that lost";
  }
  return os.str();
}

MonotonicityReport audit_greedy_monotonicity(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config,
    const MonotonicityOptions& options) {
  MonotonicityReport report;
  const auction::GreedyRun base =
      auction::run_greedy_allocation(scenario, bids, config);

  for (int i = 0; i < scenario.phone_count(); ++i) {
    const PhoneId phone{i};
    if (!base.allocation.is_winner(phone)) continue;
    ++report.winners_checked;

    const model::Bid& original = bids[static_cast<std::size_t>(i)];
    const Slot::rep_type a = original.window.begin().value();
    const Slot::rep_type d = original.window.end().value();

    // Candidate improvements: each dimension improved independently and in
    // combination, clamped to the round.
    std::vector<model::Bid> improvements;
    for (Slot::rep_type earlier = 0; earlier <= options.max_arrival_earlier;
         ++earlier) {
      const Slot::rep_type begin = std::max<Slot::rep_type>(1, a - earlier);
      for (Slot::rep_type later = 0; later <= options.max_departure_later;
           ++later) {
        const Slot::rep_type end =
            std::min<Slot::rep_type>(scenario.num_slots, d + later);
        improvements.push_back(
            model::Bid{SlotInterval::of(begin, end), original.claimed_cost});
        for (const double factor : options.cost_factors) {
          improvements.push_back(model::Bid{
              SlotInterval::of(begin, end),
              Money::from_double(original.claimed_cost.to_double() * factor)});
        }
      }
    }

    for (const model::Bid& improved : improvements) {
      if (improved == original) continue;
      ++report.improvements_tested;
      const model::BidProfile probe = model::with_bid(bids, phone, improved);
      const auction::GreedyRun run =
          auction::run_greedy_allocation(scenario, probe, config);
      if (!run.allocation.is_winner(phone)) {
        report.violations.push_back(
            MonotonicityViolation{phone, original, improved});
      }
    }
  }
  return report;
}

}  // namespace mcs::analysis
