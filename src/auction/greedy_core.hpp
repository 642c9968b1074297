// The slot-steppable greedy core: Algorithm 1 one slot at a time, and
// Algorithm 2 settled by a displacement walk over the recorded slots.
//
// Allocation keeps the dynamic pool as a flat (claimed cost, id) min-heap
// across slots: admitted bids are pushed once, winners are popped from the
// front, and a departure calendar marks bids whose reported window ends. A
// departed bid stays in the pool heap as a stale element until it reaches
// the front or stale elements outnumber live ones, when one pass compacts
// the heap; so admit and win are O(log P) amortized with no per-bid heap
// node. The pool is never kept in order: the slot_pool event (Fig. 4's
// dynamic pool, the only record of it) sorts the live heap elements when a
// log is installed.
//
// The departure calendar keeps, for each slot, the bids whose reported
// window ends there, in admission order: a list threaded through the
// entries, whose head and tail sit in a fixed ring of kCalendarSlots
// slots covering [current slot, current slot + kCalendarSlots). A bid
// ending further out waits in an (end, handle) min-heap and moves into the
// ring when its slot enters it, one slot per step. So admitting a bid and
// sweeping a slot's departures are O(1) for windows shorter than the ring;
// memory grows with admitted bids, never with a slot's value.
//
// Every task is served in the slot it arrives in or not at all (the
// paper's model). Each slot serves its tasks in one order: highest value
// first, then arrival; with uniform nu that is arrival order.
// Each step records what settlement needs from the slot:
// its dearest winner (winners come out cheapest first), the runner-up
// (the cheapest bid left after allocation), the value of the last served
// task, and the largest scarcity cap among the tasks left unserved in it.
//
// Settlement (Algorithm 2) prices winner i at the dearest winning cost
// over [t'_i, d~_i] of the run without B_i. That counterfactual never has
// to be replayed. Invariant: at every slot start the counterfactual either
// agrees with the factual run or its pool lacks exactly one bid x (x
// starts as i).
//  * x wins the slot: the runner-up takes x's place, sets the slot's
//    dearest cost, and becomes the new x. If no runner-up may serve the
//    freed task, the slot serves one task fewer: its last-served task goes
//    unserved and contributes its scarcity cap, the pools agree from then
//    on, and the slot's dearest is the dearest winner other than x.
// Every other slot reads as recorded. One payment is therefore
// O(d~_i - t'_i) slot reads, with no pool copy and no replay.
//
// The batch run_greedy_allocation / OnlineGreedyMechanism, the serve
// RoundMachine (one served round, slot_tick by slot_tick, paying each
// winner in its reported departure slot) and the CounterfactualEngine's
// critical-value probes all drive this one core; the full re-run of
// Algorithm 2 in tests/support/full_replay.hpp is the independent oracle
// it is tested against. Both round drivers record a slot, a bid's
// admission and a payment through the same three functions below
// (slot_record, screen, log_payment_derivation). A probe restart()s a core
// at its fork slot and seeds it with the pool the factual allocation
// implies there, so one core serves many probes without reallocating its
// buffers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/money.hpp"
#include "common/types.hpp"
#include "model/bid.hpp"

namespace mcs::auction {

/// One pooled bid. Ordering by (claimed cost, phone id) ascending is the
/// total deterministic order that makes the allocation rule monotone
/// (Definition 10) and the audits exact.
struct PoolBid {
  std::int64_t cost_micros;
  int phone;

  friend bool operator<(const PoolBid& a, const PoolBid& b) {
    if (a.cost_micros != b.cost_micros) return a.cost_micros < b.cost_micros;
    return a.phone < b.phone;
  }
  friend bool operator==(const PoolBid& a, const PoolBid& b) = default;
};

/// What Algorithm 2 derived for one winner -- the payment plus the
/// provenance its payment_derivation record reports.
struct Settlement {
  Money payment;
  /// Some task in [t'_i, d~_i] goes unserved without the winner.
  bool scarce{false};
  Money scarce_cap;  ///< largest cap of those tasks (reserve or value)
  bool scarce_applied{false};  ///< the cap raised the payment (kCapAtValue)
  /// The counterfactual slot winner that set the payment (the argmax of
  /// Algorithm 2 line 6), if one beat the winner's own bid.
  std::optional<PhoneId> setter_phone;
  Slot setter_slot{0};
  /// Slot records the walk read, [t'_i, d~_i]. Callers add these up and
  /// publish auction.settlement.slots_walked once per run or round.
  std::int64_t slots_walked{0};
};

/// Applies the configured scarcity policy to a derived settlement.
void apply_scarcity_policy(Settlement& settlement,
                           const OnlineGreedyConfig& config);

/// Payment cap of a task left unserved without the winner: the reserve if
/// set (capped by the task value under profitable-only), else the value.
[[nodiscard]] Money scarce_cap_for(Money task_value,
                                   const OnlineGreedyConfig& config);

class GreedyCore {
 public:
  /// Index of an admitted bid, in admission order.
  using Handle = int;

  /// A pooled bid's order key with its handle.
  struct Pooled {
    PoolBid key;
    Handle handle;
  };

  struct Entry {
    int id;  ///< phone / agent id: the pool's tie-break after cost
    model::Bid bid;
    Slot::rep_type win_slot{0};  ///< 0 while unallocated
    bool pooled{true};  ///< in the pool: neither allocated nor departed
    /// The next bid (in admission order) leaving in the same slot; -1 ends
    /// the calendar list.
    Handle next_departing{-1};
  };

  /// A task, serviceable only in the slot it is added in.
  struct Task {
    TaskId id;
    Money value;
  };

  struct Assignment {
    Task task;
    Handle winner;
  };

  /// What one step() did.
  struct Step {
    Slot::rep_type slot{0};
    /// Served tasks with their winners, in service order (highest value,
    /// then arrival; the winners come out cheapest first).
    std::vector<Assignment> assignments;
    /// Tasks left unserved this slot, in service order: the pool ran dry
    /// or, under allocate_only_profitable, its cheapest bid exceeds their
    /// value.
    std::vector<Task> unserved;
    /// Cheapest bid left in the pool after allocation.
    std::optional<Handle> runner_up;
    /// Pool size after allocation, before the departure sweep.
    std::size_t pool_left{0};
    /// Bids whose reported window ends this slot, in admission order
    /// (allocated or not); the unallocated ones have left the pool.
    std::vector<Handle> departing;
  };

  explicit GreedyCore(OnlineGreedyConfig config = {}) : config_(config) {}

  /// Slots the departure calendar's ring covers (see the file comment); a
  /// power of two.
  static constexpr Slot::rep_type kCalendarSlots = 64;

  /// Empties the core (keeping its buffers) and starts it at `first_slot`
  /// under `config`: the next step() allocates that slot.
  void restart(const OnlineGreedyConfig& config, Slot::rep_type first_slot);

  /// Heap bytes the core's buffers hold; restart() keeps them.
  [[nodiscard]] std::size_t retained_bytes() const;

  [[nodiscard]] const OnlineGreedyConfig& config() const { return config_; }
  /// The slot the next step() allocates (1-based).
  [[nodiscard]] Slot::rep_type current_slot() const { return current_slot_; }

  /// Whether the platform reserve lets a bid claiming `cost` in.
  [[nodiscard]] bool admits(Money cost) const;

  /// admits(bid.claimed_cost), recorded as the bid's bid_admitted or
  /// bid_rejected event (slot = its reported arrival).
  [[nodiscard]] bool screen(int id, const model::Bid& bid) const;

  /// Pools a bid whose reported window holds the current slot (a restarted
  /// core pools bids that arrived before its first slot); requires
  /// admits(bid.claimed_cost). Ids must be unique among admitted bids (the
  /// caller's check: the pool heap does not look for duplicates).
  Handle admit(int id, const model::Bid& bid);

  /// Queues a task arriving in the current slot. Task ids must increase in
  /// arrival order (every caller's convention): they break the service
  /// order's ties.
  void add_task(const Task& task) { tasks_.push_back(task); }

  /// Algorithm 1 for the current slot: serves the slot's tasks (highest
  /// value, then arrival) from the cheapest pooled bids, leaves the rest
  /// unserved, records the slot for settlement, sweeps the slot's
  /// departures, and moves to the next slot. Emits the slot's slot_pool,
  /// task_assigned and task_unserved events. The returned reference stays
  /// valid until the next step().
  const Step& step();

  /// The per-slot record of a step: its winners' ids, unserved task ids
  /// and runner-up id.
  [[nodiscard]] GreedySlotRecord slot_record(const Step& step) const;

  /// Algorithm 2 for an allocated bid by the displacement walk. Requires
  /// every slot from its win to its reported departure to have been
  /// stepped, so a winner is settled in its reported departure slot (it is
  /// in that step's `departing`) and no earlier. Counts nothing itself: the
  /// walk's length is Settlement::slots_walked.
  [[nodiscard]] Settlement settle(Handle winner) const;

  [[nodiscard]] const Entry& entry(Handle handle) const {
    return entries_[static_cast<std::size_t>(handle)];
  }
  /// Every winner so far in allocation order (slot by slot, cheapest
  /// first within a slot).
  [[nodiscard]] const std::vector<Handle>& winners() const { return winners_; }

 private:
  /// What settlement reads from one stepped slot.
  struct SlotLog {
    std::optional<Handle> dearest;  ///< last (highest-cost) winner
    std::optional<Handle> runner_up;
    Money last_value;  ///< of the task `dearest` served, when it is set
    std::optional<Money> scarce_cap;  ///< of the tasks left unserved here
  };

  /// The task_assigned / task_unserved records of the last step.
  void log_step() const;

  [[nodiscard]] Money cost_of(Handle handle) const {
    return entry(handle).bid.claimed_cost;
  }

  /// Pops departed bids off the front of the pool heap, so that the front
  /// (if any) is the cheapest pooled bid.
  void drop_departed_front();

  /// One slot's calendar list.
  struct DepartureList {
    Handle head{-1};
    Handle tail{-1};
  };

  /// The ring's list for `slot`, which the ring must cover.
  DepartureList& departures_in(Slot::rep_type slot) {
    return calendar_[static_cast<std::size_t>(slot) &
                     static_cast<std::size_t>(kCalendarSlots - 1)];
  }

  /// Appends `handle` to the calendar list of `slot`, which the ring covers.
  void enlist_departure(Handle handle, Slot::rep_type slot);

  OnlineGreedyConfig config_;
  Slot::rep_type first_slot_{1};
  Slot::rep_type current_slot_{1};
  std::vector<Entry> entries_;
  /// Min-heap on Pooled::key: every pooled bid, plus `stale_` departed ones
  /// not yet dropped.
  std::vector<Pooled> heap_;
  std::size_t live_{0};
  std::size_t stale_{0};
  std::vector<Task> tasks_;  ///< the current slot's, until step()
  /// Departure calendar: slot t's list is calendar_[t % kCalendarSlots].
  std::array<DepartureList, kCalendarSlots> calendar_;
  /// Min-heap of (reported departure, handle) of the bids whose departure
  /// the ring does not cover yet.
  std::vector<std::pair<Slot::rep_type, Handle>> far_departures_;
  std::vector<Handle> winners_;
  std::vector<SlotLog> slots_;  ///< index t - first_slot_ describes slot t
  Step step_;
};

/// The winner's payment_derivation record (rule
/// algorithm2.counterfactual_max, slot = its win slot).
void log_payment_derivation(const GreedyCore::Entry& winner,
                            const Settlement& settlement);

}  // namespace mcs::auction
