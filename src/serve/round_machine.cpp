#include "serve/round_machine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/buffers.hpp"
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
    : core_(config), capture_(capture) {
  reset(open);
}

void RoundMachine::reset(const ServeEvent& open) {
  if (open.kind != ServeEventKind::kRoundOpen) {
    stream_error(open.round, "round must start with round_open");
  }
  if (open.num_slots < 1) {
    stream_error(open.round, "a round needs at least one slot");
  }
  if (open.round_value.is_negative()) {
    stream_error(open.round, "round value must be >= 0");
  }
  round_ = open.round;
  num_slots_ = open.num_slots;
  round_value_ = open.round_value;
  core_.restart(core_.config(), 1);
  agents_.clear();
  done_ = false;
  slots_walked_ = 0;
  assignments_.clear();
  payments_.clear();
  phone_count_ = 0;
  captured_tasks_.clear();
  captured_bids_.clear();
  captured_slots_.clear();
  totals_ = RoundTotals{};
  totals_.round = round_;
  totals_.events_consumed = 1;  // the round_open itself
}

std::size_t RoundMachine::retained_bytes() const {
  return core_.retained_bytes() + agents_.retained_bytes() +
         capacity_bytes(assignments_, payments_, captured_tasks_,
                        captured_bids_, captured_slots_);
}

void RoundMachine::expect_now(Slot slot) const {
  if (core_.current_slot() > num_slots_) {
    stream_error(round_, "event after the round's last slot_tick");
  }
  if (slot.value() != core_.current_slot()) {
    stream_error(round_, "event names slot " + std::to_string(slot.value()) +
                             " but the round is inside slot " +
                             std::to_string(core_.current_slot()));
  }
}

bool RoundMachine::apply(const ServeEvent& event) {
  if (event.round != round_) {
    stream_error(round_, "event routed to the wrong round");
  }
  if (done_) stream_error(round_, "event after round_close");
  ++totals_.events_consumed;

  switch (event.kind) {
    case ServeEventKind::kRoundOpen:
      stream_error(round_, "duplicate round_open");

    case ServeEventKind::kTaskArrived:
      expect_now(event.slot);
      if (event.task.value() != totals_.tasks_announced) {
        stream_error(round_, "task ids must be dense and increasing");
      }
      if (event.task_value && (event.task_value->is_negative() ||
                               *event.task_value >= Money::max())) {
        stream_error(round_, "task value out of range");
      }
      core_.add_task(auction::GreedyCore::Task{
          event.task, event.task_value.value_or(round_value_)});
      ++totals_.tasks_announced;
      if (capture_) {
        captured_tasks_.push_back(
            model::Task{event.task, event.slot, event.task_value});
      }
      return false;

    case ServeEventKind::kBidSubmitted: {
      expect_now(event.window.begin());
      if (event.window.end().value() > num_slots_) {
        stream_error(round_, "bid window extends past the round horizon");
      }
      if (event.claimed_cost.is_negative()) {
        stream_error(round_, "claimed cost must be >= 0");
      }
      if (!agents_.insert(event.agent.value())) {
        stream_error(round_, "agent " + std::to_string(event.agent.value()) +
                                 " bid twice");
      }
      phone_count_ = std::max(phone_count_,
                              std::int64_t{event.agent.value()} + 1);
      const model::Bid bid = bid_of(event);
      if (capture_) captured_bids_.emplace_back(event.agent, bid);
      if (core_.screen(event.agent.value(), bid)) {
        (void)core_.admit(event.agent.value(), bid);
        ++totals_.bids_admitted;
      } else {
        ++totals_.bids_rejected;  // platform reserve said no
      }
      return false;
    }

    case ServeEventKind::kSlotTick: {
      expect_now(event.slot);
      const auction::GreedyCore::Step& step = core_.step();
      for (const auction::GreedyCore::Assignment& assignment :
           step.assignments) {
        assignments_.emplace_back(assignment.task.id,
                                  PhoneId{core_.entry(assignment.winner).id});
      }
      if (capture_) captured_slots_.push_back(core_.slot_record(step));
      // Winners whose reported departure is this slot are paid now; losers
      // leave unpaid.
      for (const auction::GreedyCore::Handle handle : step.departing) {
        const auction::GreedyCore::Entry& leaving = core_.entry(handle);
        if (leaving.win_slot == 0) continue;
        const auction::Settlement settlement = core_.settle(handle);
        slots_walked_ += settlement.slots_walked;
        auction::log_payment_derivation(leaving, settlement);
        payments_.emplace_back(PhoneId{leaving.id}, settlement.payment);
        totals_.total_paid += settlement.payment;
      }
      return false;
    }

    case ServeEventKind::kRoundClose: {
      if (core_.current_slot() <= num_slots_) {
        stream_error(round_, "round_close before the last slot_tick");
      }
      // The phone count take_outcome() sizes by must fit an int.
      if (phone_count_ > std::numeric_limits<int>::max()) {
        stream_error(round_, "agent ids exceed the phone count range");
      }
      done_ = true;
      return true;
    }
  }
  stream_error(round_, "unhandled event kind");
}

RoundOutcome RoundMachine::take_outcome() const {
  MCS_EXPECTS(done_, "take_outcome requires a closed round");
  // Agent ids are dense per the scenario convention, so the bid events
  // seen fix the phone count; task ids were checked dense on arrival.
  RoundOutcome result{totals_, {}};
  const auto phone_count = static_cast<int>(phone_count_);
  const int task_count = static_cast<int>(totals_.tasks_announced);
  result.outcome.allocation = auction::Allocation(task_count, phone_count);
  for (const auto& [task, agent] : assignments_) {
    result.outcome.allocation.assign(task, agent);
  }
  result.outcome.payments.assign(static_cast<std::size_t>(phone_count),
                                 Money{});
  for (const auto& [agent, payment] : payments_) {
    result.outcome.payments[static_cast<std::size_t>(agent.value())] =
        payment;
  }
  return result;
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
  captured.config = core_.config();
  return captured;
}

}  // namespace mcs::serve
