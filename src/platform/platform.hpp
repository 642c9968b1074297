// The cloud platform, as a slot-by-slot state machine.
//
// auction::OnlineGreedyMechanism is the *specification*: it consumes a
// whole Scenario at once. A deployed platform cannot -- it learns about
// tasks and bids as they arrive and must assign, collect, and pay
// incrementally. OnlinePlatform is that deployable artifact: push tasks
// and bids into the current slot, call advance_slot(), and read back the
// assignments made and the payments issued (each winner is paid in its
// reported departure slot, the earliest moment its Algorithm-2 critical
// value is determined).
//
// It is a thin protocol facade over auction::GreedyCore, the same
// slot-steppable Algorithm-1/2 core the batch mechanism drives: this class
// adds the message contract (dense task ids, one bid per agent, arrival in
// the current slot) and the platform's event records. The independent
// oracle both are tested against is the full re-run of Algorithm 2 in
// tests/support/full_replay.hpp.
#pragma once

#include <optional>
#include <vector>

#include "auction/greedy_core.hpp"
#include "auction/online_greedy.hpp"
#include "common/flat_id_set.hpp"
#include "common/money.hpp"
#include "common/types.hpp"
#include "model/bid.hpp"
#include "platform/messages.hpp"

namespace mcs::platform {

/// Everything that happened while processing one slot.
struct SlotReport {
  Slot slot{0};
  std::vector<std::pair<TaskId, AgentId>> assignments;
  std::vector<TaskId> unserved_tasks;
  /// Cheapest bid left in the pool after allocation (the slot's best
  /// losing bid), if any.
  std::optional<AgentId> runner_up;
  /// Winners whose reported departure is this slot, with their payment.
  std::vector<std::pair<AgentId, Money>> payments;
  /// Losers whose reported departure is this slot (they get nothing).
  std::vector<AgentId> unpaid_departures;
};

class OnlinePlatform {
 public:
  /// A round of `num_slots`; `default_task_value` is nu for tasks announced
  /// without an override. The config carries the same knobs as the batch
  /// mechanism (profitability guard, reserve price, scarcity policy),
  /// except task patience: every task is served in its arrival slot.
  OnlinePlatform(Slot::rep_type num_slots, Money default_task_value,
                 auction::OnlineGreedyConfig config = {});

  [[nodiscard]] Slot current_slot() const {
    return Slot{core_.current_slot()};
  }
  [[nodiscard]] bool finished() const {
    return core_.current_slot() > num_slots_;
  }

  /// Announces a task arriving in the *current* slot. Ids must be dense and
  /// increasing across the round (the scenario convention).
  void announce_task(TaskId id, std::optional<Money> value = std::nullopt);

  /// A phone joins the market in the current slot (its reported arrival
  /// must be the current slot -- phones bid when they join). Returns false
  /// when the bid is rejected at the door by the platform reserve. Each
  /// agent bids once per round, whether or not its bid was admitted.
  bool submit_bid(AgentId agent, const model::Bid& bid);

  /// Whether the agent already bid this round (admitted or rejected).
  [[nodiscard]] bool has_bid(AgentId agent) const {
    return agents_.contains(agent.value());
  }

  /// Processes the current slot: runs the Algorithm-1 step, issues
  /// Algorithm-2 payments to winners departing this slot, then moves to
  /// the next slot. The report stays valid until the next advance_slot().
  const SlotReport& advance_slot();

  /// Total money paid out so far.
  [[nodiscard]] Money total_paid() const { return total_paid_; }

  /// Slot records read by the settlements so far. The caller running the
  /// round publishes it as auction.settlement.slots_walked.
  [[nodiscard]] std::int64_t slots_walked() const { return slots_walked_; }

  [[nodiscard]] const auction::OnlineGreedyConfig& config() const {
    return core_.config();
  }

 private:
  Slot::rep_type num_slots_;
  Money default_task_value_;
  auction::GreedyCore core_;
  SlotReport report_;  // reused slot to slot
  FlatIdSet agents_;  // agents that bid, for the one-bid rule
  Money total_paid_;
  std::int64_t slots_walked_{0};
  int last_task_id_{-1};
};

}  // namespace mcs::platform
