// Shared-prefix counterfactual engine for critical-value probes.
//
// A bisection probe of a critical value re-runs Algorithm 1 with one
// bid's claimed cost changed. The greedy pool evolves deterministically
// from the bid arrivals, so that run is *byte-identical* to the factual
// run for every slot before the bid's reported arrival a~_i: B_i cannot
// influence a pool it has not joined yet. The factual pass therefore
// checkpoints its per-slot-start state (pool + task cursor), and each
// probe forks from the checkpoint at a~_i instead of replaying from slot
// 1. A full replay costs O(m (n log n + gamma)); a fork costs only the
// suffix [a~_i, d~_i], and exits at the probed bid's first win.
//
// Payments do not fork: Algorithm 2 settles on the displacement walk of
// auction/greedy_core.hpp. The engine is read-only after construction and
// safe to share across threads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "auction/greedy_core.hpp"
#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

/// Per-slot snapshots of Algorithm 1's mutable state, captured by the
/// factual pass of run_greedy_allocation (capture parameter). slots[t] is
/// the state at the *start* of slot t, after slot t-1's departures and
/// before slot-t arrivals are folded in -- so a phone reporting arrival a~
/// is absent from slots[a~], which is exactly the fork point property the
/// engine relies on. Index 0 is unused (slots are 1-based).
struct GreedyCheckpoints {
  struct SlotStart {
    std::vector<PoolBid> pool;  ///< active unallocated bids, sorted ascending
    std::size_t next_task{0};   ///< cursor into the dense task-id sequence
  };
  std::vector<SlotStart> slots;
  /// Admitted phones grouped by reported arrival slot (reserve-rejected
  /// bids never appear) -- the same index the factual pass allocated from.
  std::vector<std::vector<int>> arrivals;
};

/// Counterfactual evaluator over one (scenario, bids, config) triple.
///
/// Holds references to the scenario and bid profile: both must outlive the
/// engine. All public methods are const and thread-safe; counters are
/// recorded through the caller thread's obs::current_registry().
class CounterfactualEngine {
 public:
  /// Builds checkpoints with an internal factual pass (event recording is
  /// suppressed for its scope: the factual trail, if wanted, is the
  /// caller's to record).
  CounterfactualEngine(const model::Scenario& scenario,
                       const model::BidProfile& bids,
                       const OnlineGreedyConfig& config);

  /// Does `phone` win when claiming `cost`, all other bids fixed? Forks at
  /// phone's reported arrival and exits early on the first assignment (a
  /// pooled bid, once allocated, stays a winner). Equivalent to re-running
  /// the full allocation on with_bid(bids, phone, {window, cost}).
  [[nodiscard]] bool wins_with_cost(PhoneId phone, Money cost) const;

  /// Result of a public critical-value probe (critical_value_of).
  struct CriticalValueProbe {
    /// Whether the phone wins at claimed cost 0 (all other bids fixed).
    /// When false there is no winning claim at all and `critical` is empty.
    bool winnable{false};
    /// Bounded critical claimed cost when one exists; empty when the phone
    /// is unwinnable, or wins at every probed cost (supply scarcity).
    std::optional<Money> critical;
  };

  /// Read-only critical-value probe of `phone` under the greedy rule with
  /// everyone else's reported bids fixed -- the seam the flight recorder's
  /// explain path uses, exposed so strategic-agent code (the arena's
  /// best-responder) can ask "what is the highest claim that still wins?"
  /// without duplicating the bisection. Delegates to
  /// greedy_critical_value(*this, phone) after screening out unwinnable
  /// phones (which the bisection preconditions away). Thread-safe.
  [[nodiscard]] CriticalValueProbe critical_value_of(PhoneId phone) const;

  /// Last slot covered by the checkpoints (the factual pass's horizon).
  [[nodiscard]] Slot::rep_type horizon() const {
    return static_cast<Slot::rep_type>(checkpoints_.slots.size()) - 1;
  }

  [[nodiscard]] const model::Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const model::BidProfile& bids() const { return bids_; }
  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }

 private:
  const model::Scenario& scenario_;
  const model::BidProfile& bids_;
  OnlineGreedyConfig config_;
  GreedyCheckpoints checkpoints_;
  /// Admitted phones grouped by the slot *after* their reported departure
  /// (the slot whose sweep erases them), mirroring checkpoints_.arrivals.
  /// Checkpoints are taken after that sweep, so forks erase only bids
  /// their own suffix admitted.
  std::vector<std::vector<int>> departures_;
  std::vector<int> tasks_per_slot_;
};

}  // namespace mcs::auction
