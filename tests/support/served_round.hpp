// A scenario served as one streamed round.
//
// serve::round_events turns a Scenario and a bid profile into the round's
// event stream (tasks in their arrival slot, each bid in its reported
// arrival slot, one slot_tick per slot), and a serve::RoundMachine consumes
// it in order -- the path every served round takes. Tests compare what it
// pays against the batch mechanism and the full-replay oracle.
#pragma once

#include "auction/online_greedy.hpp"
#include "model/scenario.hpp"
#include "serve/round_machine.hpp"

namespace mcs::test_support {

/// Serves the round and returns its closed outcome.
[[nodiscard]] serve::RoundOutcome serve_round(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const auction::OnlineGreedyConfig& config = {});

}  // namespace mcs::test_support
