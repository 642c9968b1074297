// The online near-optimal truthful mechanism (paper Section V).
//
// Allocation (Algorithm 1): at the start of each slot t, the platform adds
// newly arrived bids to the dynamic pool, drops departed ones, and assigns
// the slot's r_t tasks to the r_t active unallocated bids with the lowest
// claimed costs (ties broken by phone id -- a fixed deterministic order is
// required for the monotonicity of Definition 10). This greedy rule is
// 1/2-competitive in social welfare against the offline optimum (Theorem 6).
//
// Payment (Algorithm 2): a winner i that won in slot t'_i is paid the
// *critical value* -- the highest claimed cost among per-slot winners in
// slots [t'_i, d~_i] of a counterfactual run without B_i (and never below
// b_i). Payment at the critical value plus monotone allocation yields
// truthfulness (Theorem 4) and individual rationality (Theorem 5).
//
// Two paper-silent corner cases are governed by OnlineGreedyConfig and
// documented in DESIGN.md Section 5:
//  * scarcity: if, without i, some task in [t'_i, d~_i] would go unserved,
//    i's critical value is unbounded; the payment then includes the task
//    value nu (kCapAtValue) or falls back to b_i (kOwnBid).
//  * profitability: Algorithm 1 as printed allocates even when b_i > nu;
//    allocate_only_profitable = true skips such bids.
#pragma once

#include <optional>
#include <vector>

#include "auction/mechanism.hpp"

namespace mcs::auction {

struct OnlineGreedyConfig {
  /// Skip bids whose claimed cost exceeds the task value (off = faithful to
  /// the paper's Algorithm 1, which allocates unconditionally).
  bool allocate_only_profitable = false;

  /// Platform reserve price: bids claiming more than this can never win.
  /// A set reserve bounds every critical value by the reserve, so the
  /// mechanism stays *exactly* truthful even under supply scarcity (a
  /// scarce winner is paid the reserve -- its true threshold). Unset =
  /// paper-faithful (no reserve). Composes with allocate_only_profitable
  /// (per-task eligibility then requires b <= min(reserve, task value)).
  std::optional<Money> reserve_price;

  /// Payment contribution for slots where, without the winner, a task would
  /// have gone unallocated (critical value unbounded).
  enum class ScarcePayment {
    kCapAtValue,  ///< pay at least nu (keeps IR whenever c_i <= nu)
    kOwnBid,      ///< pay only the claimed cost for such slots
  };
  ScarcePayment scarce_payment = ScarcePayment::kCapAtValue;
};

/// Per-slot record of one greedy run (the second-price baseline, the econ
/// plane's served capture, tests and examples), built by
/// GreedyCore::slot_record. The slot's whole "dynamic pool" of Fig. 4 is
/// not kept here: the slot_pool event records it when an event log is
/// installed.
struct GreedySlotRecord {
  Slot slot{0};
  /// Winners this slot in allocation order (cheapest first).
  std::vector<PhoneId> winners;
  /// Tasks of this slot left unserved (pool ran dry, or -- under
  /// allocate_only_profitable -- no remaining bid at or below the task's
  /// value). With weighted tasks the highest-value tasks are served first,
  /// so the unserved ones are the least valuable of the slot.
  std::vector<TaskId> unserved;
  /// The cheapest bid left in the pool after allocation (the best losing
  /// bid of the slot), if any.
  std::optional<PhoneId> runner_up;
};

/// Result of running Algorithm 1 alone (no payments).
struct GreedyRun {
  Allocation allocation;
  std::vector<GreedySlotRecord> slots;  ///< index t-1 describes slot t
};

/// The per-slot second-price rule (auction/second_price.hpp) over a greedy
/// run's slot records: each phone's payment, zero for losers, indexed by
/// phone id. SecondPriceBaseline feeds it its own run; the live econ plane
/// feeds it a served round's records, so it re-runs no allocation.
[[nodiscard]] std::vector<Money> second_price_payments(
    const std::vector<GreedySlotRecord>& slots, const model::BidProfile& bids);

/// Runs Algorithm 1 on `bids` over the whole round. Exposed publicly
/// because the second-price baseline, the Fig. 4 walkthrough, the
/// charging and competitive-ratio analyses, and the CounterfactualEngine
/// builders that have no outcome at hand (the arena's respond pass, the
/// probe bench and tests) build on it; the flight recorder and the econ
/// plane hand the engine the allocation they already have. The pass drives
/// one GreedyCore (auction/greedy_core.hpp).
[[nodiscard]] GreedyRun run_greedy_allocation(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const OnlineGreedyConfig& config = {});

class OnlineGreedyMechanism final : public Mechanism {
 public:
  OnlineGreedyMechanism() = default;
  explicit OnlineGreedyMechanism(OnlineGreedyConfig config) : config_(config) {}

  [[nodiscard]] Outcome run(const model::Scenario& scenario,
                            const model::BidProfile& bids) const override;

  [[nodiscard]] std::string name() const override { return "online-greedy"; }

  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }

 private:
  OnlineGreedyConfig config_;
};

}  // namespace mcs::auction
