// Algorithm 2 by full re-run -- the payment oracle.
//
// The paper's literal Algorithm 2: for each winner i, re-run Algorithm 1
// on the round without B_i and price i at the dearest slot winner of that
// counterfactual over [t'_i, d~_i]. The mechanism settles winners by the
// displacement walk over one factual run (auction/greedy_core.hpp); the
// equivalence tests check the walk against this oracle, payment and
// provenance alike.
//
// The counterfactual drops phone i from the scenario and the bids and
// re-runs the whole round. Phone ids above i shift down by one, which
// keeps their relative order, so cost ties break exactly as in the round
// with i; every id in the result is mapped back to the original numbering.
#pragma once

#include <vector>

#include "auction/greedy_core.hpp"
#include "auction/online_greedy.hpp"
#include "model/scenario.hpp"

namespace mcs::test_support {

/// Algorithm 1 on the round as if `excluded` had never bid, reported in
/// the round's original phone ids.
[[nodiscard]] auction::GreedyRun run_greedy_without(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config, PhoneId excluded);

/// One winner of the factual run and what the full re-run derives for it.
struct ReplayedSettlement {
  PhoneId phone{0};
  Slot win_slot{0};
  auction::Settlement settlement;
};

/// The factual allocation plus every winner settled by full re-run.
struct FullReplay {
  auction::Allocation allocation;
  std::vector<Money> payments;  ///< per phone; zero for losers
  /// One per served task, in task order.
  std::vector<ReplayedSettlement> winners;
};

[[nodiscard]] FullReplay full_replay(const model::Scenario& scenario,
                                     const model::BidProfile& bids,
                                     const auction::OnlineGreedyConfig& config);

}  // namespace mcs::test_support
