// A counterfactual engine for callers with no outcome at hand.
//
// auction::CounterfactualEngine forks probes from the allocation
// Algorithm 1 made of its round. The mechanisms, the flight recorder and
// the econ plane hand it the allocation they already have; a test that
// only holds a scenario and bids builds one here.
#pragma once

#include "auction/counterfactual.hpp"
#include "auction/online_greedy.hpp"
#include "model/scenario.hpp"

namespace mcs::test_support {

/// An engine over the allocation run_greedy_allocation makes of (scenario,
/// bids) under `config`. The engine refers to `scenario` and `bids`, which
/// must outlive it.
[[nodiscard]] auction::CounterfactualEngine factual_engine(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {});

}  // namespace mcs::test_support
