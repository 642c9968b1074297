#include "support/factual_engine.hpp"

namespace mcs::test_support {

auction::CounterfactualEngine factual_engine(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config) {
  return auction::CounterfactualEngine(
      scenario, bids, config,
      auction::run_greedy_allocation(scenario, bids, config).allocation);
}

}  // namespace mcs::test_support
