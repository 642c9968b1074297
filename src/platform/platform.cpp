#include "platform/platform.hpp"

#include <optional>
#include <string>

#include "common/assert.hpp"
#include "obs/event_log.hpp"

namespace mcs::platform {

using auction::GreedyCore;

OnlinePlatform::OnlinePlatform(Slot::rep_type num_slots,
                               Money default_task_value,
                               auction::OnlineGreedyConfig config)
    : num_slots_(num_slots),
      default_task_value_(default_task_value),
      core_(config) {
  MCS_EXPECTS(num_slots >= 1, "round must have at least one slot");
  MCS_EXPECTS(!default_task_value.is_negative(), "task value must be >= 0");
  // The serve wire format carries no task deadline.
  MCS_EXPECTS(config.patience == 0,
              "the online platform serves tasks in their arrival slot");
}

void OnlinePlatform::announce_task(TaskId id, std::optional<Money> value) {
  MCS_EXPECTS(!finished(), "round is over");
  MCS_EXPECTS(id.value() == last_task_id_ + 1,
              "task ids must be dense and increasing");
  last_task_id_ = id.value();
  core_.add_task(GreedyCore::Task{id, value.value_or(default_task_value_),
                                  core_.current_slot()});
}

bool OnlinePlatform::submit_bid(AgentId agent, const model::Bid& bid) {
  MCS_EXPECTS(!finished(), "round is over");
  MCS_EXPECTS(bid.window.begin().value() == core_.current_slot(),
              "phones bid in the slot they join");
  MCS_EXPECTS(bid.window.end().value() <= num_slots_,
              "reported departure beyond the round");
  MCS_EXPECTS(!bid.claimed_cost.is_negative(), "claimed cost must be >= 0");
  const bool first_bid = agents_.insert(agent.value());
  MCS_EXPECTS(first_bid, "agent already submitted a bid");
  const auto current = static_cast<std::int32_t>(core_.current_slot());
  if (!core_.admits(bid.claimed_cost)) {
    obs::log_event([&] {
      obs::Event event("bid_rejected");
      event.slot = current;
      event.phone = agent.value();
      event.with("reason", std::string("reserve"))
          .with("bid", bid.claimed_cost)
          .with("reserve", *core_.config().reserve_price);
      return event;
    });
    return false;  // rejected at the door
  }
  (void)core_.admit(agent.value(), bid);
  obs::log_event([&] {
    obs::Event event("bid_admitted");
    event.slot = current;
    event.phone = agent.value();
    event.with("bid", bid.claimed_cost)
        .with("departs", static_cast<std::int64_t>(bid.window.end().value()));
    return event;
  });
  return true;
}

const SlotReport& OnlinePlatform::advance_slot() {
  MCS_EXPECTS(!finished(), "round is over");
  const auto t = static_cast<std::int32_t>(core_.current_slot());
  SlotReport& report = report_;
  report.slot = Slot{t};
  report.assignments.clear();
  report.unserved_tasks.clear();
  report.runner_up.reset();
  report.payments.clear();
  report.unpaid_departures.clear();

  // --- Algorithm 1 step: assign this slot's tasks, dearest value first.
  const GreedyCore::Step& step = core_.step();
  for (const GreedyCore::Assignment& assignment : step.assignments) {
    report.assignments.emplace_back(
        assignment.task.id, AgentId{core_.entry(assignment.winner).id});
  }
  for (const GreedyCore::Task& task : step.unserved) {
    report.unserved_tasks.push_back(task.id);
  }
  if (step.runner_up) {
    report.runner_up = AgentId{core_.entry(*step.runner_up).id};
  }

  // --- Departures: settle everyone whose reported departure is this slot.
  for (const GreedyCore::Handle handle : step.departing) {
    const GreedyCore::Entry& leaving = core_.entry(handle);
    if (leaving.win_slot == 0) {
      report.unpaid_departures.push_back(AgentId{leaving.id});
      continue;
    }
    const auction::Settlement settlement = core_.settle(handle);
    total_paid_ += settlement.payment;
    slots_walked_ += settlement.slots_walked;
    report.payments.emplace_back(AgentId{leaving.id}, settlement.payment);
    obs::log_event([&] {
      obs::Event event("payment_derivation");
      event.slot = t;
      event.phone = leaving.id;
      event.with("rule", std::string("algorithm2.replay_max"))
          .with("payment", settlement.payment)
          .with("own_bid", leaving.bid.claimed_cost)
          .with("win_slot", static_cast<std::int64_t>(leaving.win_slot));
      if (settlement.setter_phone && !settlement.scarce_applied) {
        event.with("set_in_slot",
                   static_cast<std::int64_t>(settlement.setter_slot.value()));
      }
      event.with("scarce", settlement.scarce);
      if (settlement.scarce) event.with("scarce_cap", settlement.scarce_cap);
      event.with("scarce_applied", settlement.scarce_applied);
      return event;
    });
  }
  return report;
}

}  // namespace mcs::platform
