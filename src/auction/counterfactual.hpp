// Shared-prefix counterfactual engine for critical-value probes.
//
// A bisection probe of a critical value re-runs Algorithm 1 with one
// bid's claimed cost changed. The greedy pool evolves deterministically
// from the bid arrivals, so that run is *identical* to the factual run
// for every slot before the bid's reported arrival a~_i: B_i cannot
// influence a pool it has not joined yet. The engine is built from the
// factual allocation its caller already has -- the outcome a mechanism
// just produced, or the round a serve shard just served -- and runs none
// of its own. It keeps each phone's win slot and the admitted bids in
// arrival order, and each probe forks at a~_i: it restarts a GreedyCore
// there, seeds it with the factual pool at a~_i -- every other admitted
// bid whose window holds a~_i and that had not won before a~_i -- plus the
// probed bid, and steps the core over the suffix [a~_i, d~_i], admitting
// each later slot's arrivals. A full replay costs O(m (n log n + gamma));
// a fork costs only the suffix, and exits at the probed bid's first win.
//
// Payments do not fork: Algorithm 2 settles on the displacement walk of
// auction/greedy_core.hpp. The engine is read-only after construction and
// safe to share across threads: each thread probes on its own core.
#pragma once

#include <optional>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "model/scenario.hpp"

namespace mcs::auction {

/// Counterfactual evaluator over one (scenario, bids, config) triple and
/// the allocation Algorithm 1 made of it.
///
/// Holds references to the scenario and bid profile: both must outlive the
/// engine. All public methods are const and thread-safe; counters are
/// recorded through the caller thread's obs::current_registry().
class CounterfactualEngine {
 public:
  /// Records each phone's win slot from `factual` and indexes the admitted
  /// bids by arrival; runs no allocation. Probes are exact only if
  /// `factual` is the allocation Algorithm 1 made of (scenario, bids)
  /// under `config` (a caller without one runs run_greedy_allocation).
  CounterfactualEngine(const model::Scenario& scenario,
                       const model::BidProfile& bids,
                       const OnlineGreedyConfig& config,
                       const Allocation& factual);

  /// Does `phone` win when claiming `cost`, all other bids fixed? Forks at
  /// phone's reported arrival and exits early on the first assignment (a
  /// pooled bid, once allocated, stays a winner). Equivalent to re-running
  /// the full allocation on with_bid(bids, phone, {window, cost}). The fork
  /// runs on the calling thread's GreedyCore and records no events.
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
  /// everyone else's reported bids fixed, so strategic-agent code (the
  /// arena's best-responder) can ask "what is the highest claim that still
  /// wins?"
  /// without duplicating the bisection. Delegates to
  /// greedy_critical_value(*this, phone) after screening out unwinnable
  /// phones (which the bisection preconditions away). Thread-safe.
  [[nodiscard]] CriticalValueProbe critical_value_of(PhoneId phone) const;

  [[nodiscard]] const model::Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const model::BidProfile& bids() const { return bids_; }
  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }

 private:
  [[nodiscard]] Slot::rep_type arrival_of(int phone) const {
    return bids_[static_cast<std::size_t>(phone)].window.begin().value();
  }

  const model::Scenario& scenario_;
  const model::BidProfile& bids_;
  OnlineGreedyConfig config_;
  /// The factual run's win slot of each phone; 0 for a loser.
  std::vector<Slot::rep_type> win_slot_;
  /// Phones whose bid passes the reserve, by reported arrival slot (ties
  /// in id order).
  std::vector<int> arrivals_;
};

}  // namespace mcs::auction
