#include "auction/second_price.hpp"

#include "common/assert.hpp"

namespace mcs::auction {

std::vector<Money> second_price_payments(
    const std::vector<GreedySlotRecord>& slots,
    const model::BidProfile& bids) {
  std::vector<Money> payments(bids.size(), Money{});
  for (const GreedySlotRecord& record : slots) {
    if (record.winners.empty()) continue;
    // Winners are the cheapest pool members, so the best losing bid is
    // the cheapest one left after allocation: the slot's runner-up.
    std::optional<Money> runner_up_cost;
    if (record.runner_up) {
      runner_up_cost =
          bids[static_cast<std::size_t>(record.runner_up->value())]
              .claimed_cost;
    }
    for (const PhoneId winner : record.winners) {
      const Money own =
          bids[static_cast<std::size_t>(winner.value())].claimed_cost;
      // Uniform price: every winner of the slot gets the best losing bid
      // (>= its own bid by the greedy order), or its own bid without one.
      const Money payment = runner_up_cost.value_or(own);
      MCS_ASSERT(payment >= own, "runner-up bid below a winner's bid");
      payments[static_cast<std::size_t>(winner.value())] = payment;
    }
  }
  return payments;
}

Outcome SecondPriceBaseline::run(const model::Scenario& scenario,
                                 const model::BidProfile& bids) const {
  scenario.validate();
  GreedyRun greedy = run_greedy_allocation(scenario, bids, config_);

  Outcome outcome;
  outcome.allocation = std::move(greedy.allocation);
  outcome.payments = second_price_payments(greedy.slots, bids);
  outcome.validate(scenario, bids);
  return outcome;
}

}  // namespace mcs::auction
