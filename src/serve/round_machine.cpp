#include "serve/round_machine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mcs::serve {

namespace {

[[noreturn]] void stream_error(std::int64_t round, const std::string& what) {
  throw InvalidArgumentError("serve stream, round " + std::to_string(round) +
                             ": " + what);
}

}  // namespace

RoundMachine::RoundMachine(const ServeEvent& open,
                           auction::OnlineGreedyConfig config, bool capture)
    : round_(open.round),
      clock_(open.num_slots),
      platform_(open.num_slots, open.round_value, config),
      capture_(capture),
      num_slots_(open.num_slots),
      round_value_(open.round_value) {
  if (open.kind != ServeEventKind::kRoundOpen) {
    stream_error(open.round, "round must start with round_open");
  }
  outcome_.round = round_;
  outcome_.events_consumed = 1;  // the round_open itself
}

bool RoundMachine::apply(const ServeEvent& event) {
  if (event.round != round_) {
    stream_error(round_, "event routed to the wrong round");
  }
  if (done_) stream_error(round_, "event after round_close");
  ++outcome_.events_consumed;

  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      stream_error(round_, "duplicate round_open");

    case ServeEventKind::kTaskArrived:
      clock_.expect_now(event.slot);
      platform_.announce_task(event.task, event.task_value);
      ++outcome_.tasks_announced;
      if (capture_) {
        captured_tasks_.push_back(
            model::Task{event.task, event.slot, event.task_value});
      }
      return false;

    case ServeEventKind::kBidSubmitted: {
      clock_.expect_now(event.window.begin());
      if (event.window.end().value() > clock_.horizon()) {
        stream_error(round_, "bid window extends past the round horizon");
      }
      if (platform_.has_bid(event.agent)) {
        stream_error(round_, "agent " + std::to_string(event.agent.value()) +
                                 " bid twice");
      }
      phone_count_ = std::max(phone_count_,
                              std::int64_t{event.agent.value()} + 1);
      if (capture_) captured_bids_.emplace_back(event.agent, bid_of(event));
      if (platform_.submit_bid(event.agent, bid_of(event))) {
        ++outcome_.bids_admitted;
      } else {
        ++outcome_.bids_rejected;  // platform reserve said no
      }
      return false;
    }

    case ServeEventKind::kSlotTick: {
      clock_.tick(event.slot);
      const platform::SlotReport& report = platform_.advance_slot();
      for (const auto& assignment : report.assignments) {
        assignments_.push_back(assignment);
      }
      for (const auto& payment : report.payments) {
        payments_.push_back(payment);
      }
      if (capture_) {
        auction::GreedySlotRecord& record = captured_slots_.emplace_back();
        record.slot = report.slot;
        for (const auto& [task, agent] : report.assignments) {
          record.winners.push_back(agent);
        }
        record.unserved = report.unserved_tasks;
        record.runner_up = report.runner_up;
      }
      return false;
    }

    case ServeEventKind::kRoundClose: {
      if (!clock_.finished()) {
        stream_error(round_, "round_close before the last slot_tick");
      }
      // Materialize the batch-comparable outcome. Agent ids are dense per
      // the scenario convention, so the bid events seen fix the phone
      // count; task ids were validated dense by the platform.
      if (phone_count_ > std::numeric_limits<int>::max()) {
        stream_error(round_, "agent ids exceed the phone count range");
      }
      const auto phone_count = static_cast<int>(phone_count_);
      const int task_count = static_cast<int>(outcome_.tasks_announced);
      outcome_.outcome.allocation = auction::Allocation(task_count, phone_count);
      for (const auto& [task, agent] : assignments_) {
        outcome_.outcome.allocation.assign(task, agent);
      }
      outcome_.outcome.payments.assign(static_cast<std::size_t>(phone_count),
                                       Money{});
      for (const auto& [agent, payment] : payments_) {
        outcome_.outcome.payments[static_cast<std::size_t>(agent.value())] =
            payment;
        outcome_.total_paid += payment;
      }
      done_ = true;
      return true;
    }
  }
  stream_error(round_, "unhandled event kind");
}

RoundOutcome RoundMachine::take_outcome() {
  MCS_EXPECTS(done_, "take_outcome requires a closed round");
  return std::move(outcome_);
}

bool RoundMachine::capture_complete() const {
  return capture_ && done_ &&
         static_cast<std::int64_t>(captured_bids_.size()) == phone_count_;
}

CapturedRound RoundMachine::take_captured() {
  MCS_EXPECTS(capture_complete(),
              "take_captured requires a closed, fully-captured round");
  CapturedRound captured;
  captured.scenario.num_slots = num_slots_;
  captured.scenario.task_value = round_value_;
  captured.scenario.tasks = std::move(captured_tasks_);
  // Complete capture means the ids are exactly 0..n-1, so sorting by id
  // puts each bid at its phone index.
  std::sort(captured_bids_.begin(), captured_bids_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  captured.scenario.phones.reserve(captured_bids_.size());
  captured.bids.reserve(captured_bids_.size());
  for (const auto& [agent, bid] : captured_bids_) {
    // Claimed == true: the reconstruction treats reports as ground truth
    // (the engine has nothing else), so bids equals truthful_bids().
    captured.scenario.phones.push_back(
        model::TrueProfile{bid.window, bid.claimed_cost});
    captured.bids.push_back(bid);
  }
  captured.slots = std::move(captured_slots_);
  captured.config = platform_.config();
  return captured;
}

}  // namespace mcs::serve
