// Per-slot second-price baseline -- the scheme the paper shows is NOT
// time-truthful (Section V-C, Fig. 5).
//
// Allocation is the same greedy rule as Algorithm 1. Payment generalizes
// the second-price idea slot-by-slot: every winner of slot t is paid the
// claimed cost of the best losing bid still in the pool (the (r_t + 1)-th
// cheapest); with one task per slot this is exactly the textbook second
// price. A slot with no losing bid left pays its winners their own bids.
// The paper's counterexample: by delaying its reported arrival, a phone can
// move its win into a slot with a pricier runner-up and raise its payment
// (4 -> 8 in Fig. 5) -- the truthfulness audit reproduces this violation,
// which motivates Algorithm 2's over-time critical value.
// The rule is second_price_payments (declared in auction/online_greedy.hpp
// with the slot records it reads), which the live econ plane shares.
#pragma once

#include "auction/mechanism.hpp"
#include "auction/online_greedy.hpp"

namespace mcs::auction {

class SecondPriceBaseline final : public Mechanism {
 public:
  SecondPriceBaseline() = default;
  /// `config` carries the allocation knobs (the same greedy rule as the
  /// online mechanism).
  explicit SecondPriceBaseline(OnlineGreedyConfig config) : config_(config) {}

  [[nodiscard]] Outcome run(const model::Scenario& scenario,
                            const model::BidProfile& bids) const override;

  [[nodiscard]] std::string name() const override {
    return "per-slot-second-price";
  }

 private:
  OnlineGreedyConfig config_;
};

}  // namespace mcs::auction
