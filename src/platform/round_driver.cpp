#include "platform/round_driver.hpp"

#include <string>

#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::platform {

namespace {

/// Counter name for a protocol event kind ("platform.events.<kind>").
std::string_view event_counter_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTaskAnnounced:
      return "platform.events.task_announced";
    case EventKind::kBidSubmitted:
      return "platform.events.bid_submitted";
    case EventKind::kTaskAssigned:
      return "platform.events.task_assigned";
    case EventKind::kTaskUnserved:
      return "platform.events.task_unserved";
    case EventKind::kSensingReported:
      return "platform.events.sensing_reported";
    case EventKind::kPaymentIssued:
      return "platform.events.payment_issued";
    case EventKind::kDeparted:
      return "platform.events.departed";
  }
  return "platform.events.unknown";
}

}  // namespace

RoundEventView RoundResult::events_of(EventKind kind) const {
  return RoundEventView(transcript, kind);
}

RoundResult run_round(const model::Scenario& scenario,
                      const model::BidProfile& bids,
                      auction::OnlineGreedyConfig config) {
  const obs::TraceSpan span("platform.round");
  scenario.validate();
  model::validate_bids(scenario, bids);

  OnlinePlatform platform(scenario.num_slots, scenario.task_value, config);

  RoundResult result;
  result.outcome.allocation =
      auction::Allocation(scenario.task_count(), scenario.phone_count());
  result.outcome.payments.assign(scenario.phones.size(), Money{});

  std::size_t task_cursor = 0;
  for (Slot::rep_type t = 1; t <= scenario.num_slots; ++t) {
    // Sensing queries that arrived this slot become task announcements.
    while (task_cursor < scenario.tasks.size() &&
           scenario.tasks[task_cursor].slot.value() == t) {
      const model::Task& task = scenario.tasks[task_cursor];
      platform.announce_task(task.id, task.value);
      result.transcript.push_back(
          RoundEvent{Slot{t}, EventKind::kTaskAnnounced, AgentId{-1}, task.id,
                     scenario.value_of(task.id)});
      ++task_cursor;
    }
    // Phones whose reported arrival is this slot join and bid.
    for (int i = 0; i < scenario.phone_count(); ++i) {
      const model::Bid& bid = bids[static_cast<std::size_t>(i)];
      if (bid.window.begin().value() != t) continue;
      if (platform.submit_bid(AgentId{i}, bid)) {
        result.transcript.push_back(RoundEvent{
            Slot{t}, EventKind::kBidSubmitted, AgentId{i}, TaskId{-1},
            bid.claimed_cost});
      }
    }

    const SlotReport& report = platform.advance_slot();
    for (const auto& [task, agent] : report.assignments) {
      result.outcome.allocation.assign(task, agent);
      result.transcript.push_back(
          RoundEvent{Slot{t}, EventKind::kTaskAssigned, agent, task, Money{}});
      // The task takes the slot; the report comes back before slot end.
      result.transcript.push_back(RoundEvent{
          Slot{t}, EventKind::kSensingReported, agent, task, Money{}});
    }
    for (const TaskId task : report.unserved_tasks) {
      result.transcript.push_back(
          RoundEvent{Slot{t}, EventKind::kTaskUnserved, AgentId{-1}, task,
                     Money{}});
    }
    for (const auto& [agent, payment] : report.payments) {
      result.outcome.payments[static_cast<std::size_t>(agent.value())] =
          payment;
      result.transcript.push_back(RoundEvent{
          Slot{t}, EventKind::kPaymentIssued, agent, TaskId{-1}, payment});
    }
    for (const AgentId agent : report.unpaid_departures) {
      result.transcript.push_back(RoundEvent{
          Slot{t}, EventKind::kDeparted, agent, TaskId{-1}, Money{}});
      obs::log_event([&] {
        obs::Event event("phone_departed_unpaid");
        event.slot = static_cast<std::int32_t>(t);
        event.phone = agent.value();
        return event;
      });
    }
  }
  MCS_ENSURES(platform.finished(), "driver must consume the whole round");
  result.outcome.validate(scenario, bids);
  obs::log_event([&] {
    obs::Event event("round_finished");
    Money total_paid;
    for (const Money payment : result.outcome.payments) total_paid += payment;
    std::int64_t unserved = 0;
    for (const RoundEvent& round_event : result.transcript) {
      if (round_event.kind == EventKind::kTaskUnserved) ++unserved;
    }
    event
        .with("winners", static_cast<std::int64_t>(
                             result.outcome.allocation.winners().size()))
        .with("total_paid", total_paid)
        .with("unserved_tasks", unserved)
        .with("slots", static_cast<std::int64_t>(scenario.num_slots));
    return event;
  });
  if (obs::MetricsRegistry* registry = obs::current_registry()) {
    registry->counter("platform.rounds").add(1);
    registry->counter("platform.slots")
        .add(static_cast<std::int64_t>(scenario.num_slots));
    if (platform.slots_walked() > 0) {
      registry->counter("auction.settlement.slots_walked")
          .add(platform.slots_walked());
    }
    for (const RoundEvent& event : result.transcript) {
      registry->counter(event_counter_name(event.kind)).add(1);
    }
  }
  return result;
}

}  // namespace mcs::platform
