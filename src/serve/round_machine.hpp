// Per-round state machine of the streaming engine.
//
// A RoundMachine owns one in-flight auction round: it is created by the
// round_open event and then fed that round's stream in order, translating
// events into platform::OnlinePlatform calls -- task_arrived becomes
// announce_task, bid_submitted becomes submit_bid, slot_tick becomes
// advance_slot. The machine accumulates the assignments and
// departure-slot payments the platform reports and materializes them as a
// batch-comparable auction::Outcome at round_close. Because OnlinePlatform
// is the same state machine the round driver drives, a replayed event
// stream reproduces the batch OnlineGreedyMechanism outcome byte for byte
// (the streaming/batch equivalence oracle pins this).
//
// The machine is strict about stream well-formedness (untrusted input):
// events must carry the clock's current slot, every slot must be ticked
// before round_close, agents may bid once, and ids must be dense.
// Violations throw InvalidArgumentError / ContractViolation; the engine
// surfaces them as stream errors.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "auction/online_greedy.hpp"
#include "auction/outcome.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"
#include "platform/platform.hpp"
#include "serve/clock.hpp"
#include "serve/event.hpp"

namespace mcs::serve {

/// What one completed round produced.
struct RoundOutcome {
  std::int64_t round{0};
  auction::Outcome outcome;  ///< batch-comparable allocation + payments
  Money total_paid;
  std::int64_t tasks_announced{0};
  std::int64_t bids_admitted{0};
  std::int64_t bids_rejected{0};  ///< turned away by the platform reserve
  std::int64_t events_consumed{0};
};

/// Claimed-cost reconstruction of a completed round: the world as the
/// phones *reported* it. The live econ plane audits against this (the
/// engine never sees private costs), under the truthful interpretation
/// claimed == true that the paper's mechanism incentivizes.
struct CapturedRound {
  model::Scenario scenario;  ///< phones carry their reported window/cost
  model::BidProfile bids;    ///< equals scenario.truthful_bids()
};

class RoundMachine {
 public:
  /// Boots the round from its round_open event. With `capture` on, the
  /// machine additionally records tasks and bids so the closed round can
  /// be reconstructed as a (Scenario, BidProfile) pair for econ auditing.
  RoundMachine(const ServeEvent& open, auction::OnlineGreedyConfig config,
               bool capture = false);

  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] bool done() const { return done_; }

  /// Consumes the next event of this round (kinds other than kRoundOpen).
  /// Returns true when the event was kRoundClose and the round completed.
  bool apply(const ServeEvent& event);

  /// The finished round's outcome; requires done(). Moves the result out.
  [[nodiscard]] RoundOutcome take_outcome();

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
  std::int64_t round_;
  VirtualClock clock_;
  platform::OnlinePlatform platform_;
  bool done_{false};
  bool capture_{false};
  Slot::rep_type num_slots_{0};
  Money round_value_;

  std::vector<std::pair<TaskId, platform::AgentId>> assignments_;
  std::vector<std::pair<platform::AgentId, Money>> payments_;
  std::int64_t phone_count_{0};  ///< one past the largest agent id that bid
  std::vector<model::Task> captured_tasks_;
  /// Captured bids in arrival order. Nothing here is sized by an agent
  /// id's value: ids are untrusted input.
  std::vector<std::pair<platform::AgentId, model::Bid>> captured_bids_;
  RoundOutcome outcome_;
};

}  // namespace mcs::serve
