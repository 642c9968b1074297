#include "auction/offline_vcg.hpp"

#include <optional>
#include <string>

#include "common/assert.hpp"
#include "matching/hungarian.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace mcs::auction {

matching::WeightMatrix OfflineVcgMechanism::build_graph(
    const model::Scenario& scenario, const model::BidProfile& bids) {
  model::validate_bids(scenario, bids);
  matching::WeightMatrix graph(scenario.task_count(), scenario.phone_count());
  for (int t = 0; t < scenario.task_count(); ++t) {
    const Slot slot = scenario.tasks[static_cast<std::size_t>(t)].slot;
    const Money value = scenario.value_of(TaskId{t});
    for (int i = 0; i < scenario.phone_count(); ++i) {
      const model::Bid& bid = bids[static_cast<std::size_t>(i)];
      if (bid.window.contains(slot)) {
        graph.set(t, i, value - bid.claimed_cost);
      }
    }
  }
  return graph;
}

Money OfflineVcgMechanism::optimal_claimed_welfare(
    const model::Scenario& scenario, const model::BidProfile& bids) {
  matching::MaxWeightMatcher matcher(build_graph(scenario, bids));
  return matcher.total_weight();
}

Outcome OfflineVcgMechanism::run(const model::Scenario& scenario,
                                 const model::BidProfile& bids) const {
  const obs::TraceSpan span("offline_vcg.run");
  scenario.validate();

  Outcome outcome;
  outcome.allocation = Allocation(scenario.task_count(), scenario.phone_count());
  outcome.payments.assign(scenario.phones.size(), Money{});

  const matching::WeightMatrix graph = build_graph(scenario, bids);
  matching::MaxWeightMatcher matcher(graph);
  Money welfare_all;  // omega*(B)
  {
    const obs::TraceSpan matching_span("offline_vcg.matching");
    const matching::Matching& matching = matcher.solve();
    welfare_all = matcher.total_weight();
    for (int t = 0; t < scenario.task_count(); ++t) {
      if (const auto col = matching.row_to_col[static_cast<std::size_t>(t)]) {
        outcome.allocation.assign(TaskId{t}, PhoneId{*col});
        obs::log_event([&] {
          obs::Event event("winner_selected");
          event.task = t;
          event.phone = *col;
          event.slot = scenario.tasks[static_cast<std::size_t>(t)].slot.value();
          event.with("weight", *graph.get(t, *col));
          // Runner-up: the best feasible weight this task could have had
          // from any other phone (ignores matching constraints elsewhere).
          std::optional<Money> runner_up;
          std::int32_t runner_up_phone = -1;
          for (int j = 0; j < scenario.phone_count(); ++j) {
            if (j == *col) continue;
            if (const auto w = graph.get(t, j);
                w && (!runner_up || *w > *runner_up)) {
              runner_up = *w;
              runner_up_phone = j;
            }
          }
          if (runner_up) {
            event.with("runner_up_weight", *runner_up)
                .with("runner_up_phone",
                      static_cast<std::int64_t>(runner_up_phone));
          }
          return event;
        });
      } else {
        obs::log_event([&] {
          obs::Event event("task_unserved");
          event.task = t;
          event.slot = scenario.tasks[static_cast<std::size_t>(t)].slot.value();
          event.with("reason", std::string("no_positive_weight_match"));
          return event;
        });
      }
    }
  }

  const obs::TraceSpan payment_span("offline_vcg.payments");
  for (const PhoneId winner : outcome.allocation.winners()) {
    const int col = winner.value();
    const Money welfare_without =  // omega*(B_{-i})
        matcher.total_weight_without_column(col);
    // Eq. (7): p_i = (omega*(B) - (-b_i)) - omega*(B_{-i}).
    const Money payment =
        welfare_all +
        bids[static_cast<std::size_t>(col)].claimed_cost - welfare_without;
    // omega*(B) >= omega*(B_{-i}) (a feasible solution without i is feasible
    // with i), so payments never fall below the claimed cost.
    MCS_ENSURES(payment >= bids[static_cast<std::size_t>(col)].claimed_cost,
                "VCG payment below claimed cost");
    outcome.payments[static_cast<std::size_t>(col)] = payment;
    obs::log_event([&] {
      obs::Event event("payment_derivation");
      event.phone = col;
      event.with("rule", std::string("vcg.marginal"))
          .with("payment", payment)
          .with("own_bid", bids[static_cast<std::size_t>(col)].claimed_cost)
          .with("welfare_all", welfare_all)
          .with("welfare_without", welfare_without);
      return event;
    });
  }

  outcome.validate(scenario, bids);
  return outcome;
}

}  // namespace mcs::auction
