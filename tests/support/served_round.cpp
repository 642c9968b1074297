#include "support/served_round.hpp"

#include <vector>

#include "common/assert.hpp"
#include "serve/loadgen.hpp"

namespace mcs::test_support {

serve::RoundOutcome serve_round(const model::Scenario& scenario,
                                const model::BidProfile& bids,
                                const auction::OnlineGreedyConfig& config) {
  const std::vector<serve::ServeEvent> events =
      serve::round_events(0, scenario, bids);
  serve::RoundMachine machine(events.front(), config);
  for (std::size_t k = 1; k < events.size(); ++k) {
    (void)machine.apply(events[k]);
  }
  MCS_ENSURES(machine.done(), "round_events ends with round_close");
  return machine.take_outcome();
}

}  // namespace mcs::test_support
