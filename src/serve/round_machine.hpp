// Per-round state machine of the streaming engine: the one driver of a
// served round.
//
// A RoundMachine owns one in-flight auction round and the
// auction::GreedyCore that runs it (the paper's platform of Figs. 1-2). It
// is created by the round_open event and then fed that round's stream in
// order: task_arrived becomes GreedyCore::add_task, bid_submitted becomes
// screen/admit (a bid above the platform reserve is turned away at the
// door), and slot_tick becomes step() followed by settle() for each winner
// in the step's `departing` -- so every winner is paid in its reported
// departure slot, the earliest moment its Algorithm-2 critical value is
// determined (Section V-C).
//
// What a finished round keeps: its RoundTotals (total_paid summed as each
// settlement is paid) and the winners sparsely, one (task, phone) pair per
// assignment and one (phone, payment) pair per settlement -- memory linear
// in its events. round_close checks the round and builds nothing.
// take_outcome() is the one builder of the batch-comparable
// auction::Outcome, sized by the largest agent id that bid; only a caller
// that wants the dense outcome (a retaining engine, the econ audit, tests)
// pays for it. The batch OnlineGreedyMechanism drives the same core, so a
// replayed event stream reproduces its outcome byte for byte (the
// streaming/batch equivalence oracle pins this).
//
// A machine outlives its round: reset() starts it on the next round_open
// under the same config and capture mode, keeping every buffer (the core's
// through GreedyCore::restart, the one-bid set's through FlatIdSet::clear),
// so a recycled machine allocates nothing once it has served a round as
// large, unless take_outcome() builds a dense outcome (the engine keeps
// retired machines for this; serve/engine.hpp bounds what they may hold).
//
// The machine is strict about stream well-formedness (untrusted input):
// events must name the core's current slot, every slot must be ticked
// before round_close, bids must end within the round, agents may bid once
// (admitted or not), task ids must be dense, and values must lie in the
// batch Scenario's domain (nu >= 0, a task's own value in
// [0, Money::max())). Violations throw InvalidArgumentError; the engine
// surfaces them as stream errors.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "auction/greedy_core.hpp"
#include "auction/online_greedy.hpp"
#include "auction/outcome.hpp"
#include "common/flat_id_set.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"
#include "serve/event.hpp"

namespace mcs::serve {

/// A round's running totals; the engine's ServeStats sum them over the
/// completed rounds.
struct RoundTotals {
  std::int64_t round{0};
  Money total_paid;  ///< summed as each settlement is paid
  std::int64_t tasks_announced{0};
  std::int64_t bids_admitted{0};
  std::int64_t bids_rejected{0};  ///< turned away by the platform reserve
  std::int64_t events_consumed{0};
};

/// What one completed round produced: its totals and the dense outcome
/// RoundMachine::take_outcome() builds.
struct RoundOutcome : RoundTotals {
  auction::Outcome outcome;  ///< batch-comparable allocation + payments
};

/// Claimed-cost reconstruction of a completed round: the world as the
/// phones *reported* it, plus what the served core recorded of each slot.
/// The live econ plane audits against this (the engine never sees private
/// costs), under the truthful interpretation claimed == true that the
/// paper's mechanism incentivizes.
struct CapturedRound {
  model::Scenario scenario;  ///< phones carry their reported window/cost
  model::BidProfile bids;    ///< equals scenario.truthful_bids()
  /// The served slot records (winners, unserved tasks, runner-up); index
  /// t-1 describes slot t.
  std::vector<auction::GreedySlotRecord> slots;
  auction::OnlineGreedyConfig config;  ///< the round was served under this
};

class RoundMachine {
 public:
  /// Boots the round from its round_open event. With `capture` on, the
  /// machine additionally records tasks, bids and each slot's record so
  /// the closed round can be reconstructed for econ auditing.
  RoundMachine(const ServeEvent& open, auction::OnlineGreedyConfig config,
               bool capture = false);

  /// Starts the machine on a new round as if constructed from `open` with
  /// its config and capture mode, keeping its buffers. Throws like the
  /// constructor on a malformed round_open, leaving the machine as it was.
  void reset(const ServeEvent& open);

  /// Heap bytes the machine's buffers hold; reset() keeps them.
  [[nodiscard]] std::size_t retained_bytes() const;

  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] bool done() const { return done_; }

  /// Consumes the next event of this round (kinds other than kRoundOpen).
  /// Returns true when the event was kRoundClose and the round completed.
  bool apply(const ServeEvent& event);

  /// The round's totals so far (final once done()).
  [[nodiscard]] const RoundTotals& totals() const { return totals_; }

  /// Builds the finished round's batch-comparable outcome, the machine's
  /// one dense builder: its allocation and payments are sized by the
  /// largest agent id that bid. Requires done().
  [[nodiscard]] RoundOutcome take_outcome() const;

  /// Slot records read by the round's settlements so far, done or not
  /// (the engine publishes the sum as auction.settlement.slots_walked).
  [[nodiscard]] std::int64_t slots_walked() const { return slots_walked_; }

  /// True when capture was on, the round is done, and every dense agent id
  /// actually bid (a stream may legally skip ids; such rounds cannot be
  /// reconstructed and the econ plane counts them as skipped). Agents bid
  /// once, so that holds exactly when the captured bids number
  /// phone_count.
  [[nodiscard]] bool capture_complete() const;

  /// The captured round; requires capture_complete(). Moves the data out.
  /// The returned scenario is *not* pre-validated -- callers audit
  /// untrusted streams and must catch validation errors themselves.
  [[nodiscard]] CapturedRound take_captured();

 private:
  /// Throws unless the round is still open and inside `slot`.
  void expect_now(Slot slot) const;

  std::int64_t round_{0};
  Slot::rep_type num_slots_{0};
  Money round_value_;
  auction::GreedyCore core_;  ///< its current_slot() is the round's clock
  FlatIdSet agents_;  ///< agents that bid, for the one-bid rule
  bool done_{false};
  bool capture_{false};
  std::int64_t slots_walked_{0};

  std::vector<std::pair<TaskId, PhoneId>> assignments_;
  std::vector<std::pair<PhoneId, Money>> payments_;
  std::int64_t phone_count_{0};  ///< one past the largest agent id that bid
  std::vector<model::Task> captured_tasks_;
  /// Captured bids in arrival order. Nothing here is sized by an agent
  /// id's value: ids are untrusted input.
  std::vector<std::pair<PhoneId, model::Bid>> captured_bids_;
  std::vector<auction::GreedySlotRecord> captured_slots_;
  RoundTotals totals_;
};

}  // namespace mcs::serve
