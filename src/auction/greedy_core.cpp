#include "auction/greedy_core.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "common/assert.hpp"
#include "common/buffers.hpp"
#include "obs/event_log.hpp"

namespace mcs::auction {

void apply_scarcity_policy(Settlement& settlement,
                           const OnlineGreedyConfig& config) {
  settlement.scarce_applied =
      settlement.scarce &&
      config.scarce_payment == OnlineGreedyConfig::ScarcePayment::kCapAtValue &&
      settlement.scarce_cap > settlement.payment;
  if (settlement.scarce_applied) {
    settlement.payment = settlement.scarce_cap;
  }
}

Money scarce_cap_for(Money task_value, const OnlineGreedyConfig& config) {
  if (config.reserve_price) {
    return config.allocate_only_profitable
               ? std::min(*config.reserve_price, task_value)
               : *config.reserve_price;
  }
  return task_value;
}

namespace {

/// Heap order of the pool: `a` comes out after `b` (a min-heap on the key).
/// A function object, not a function: its type names the comparison, so
/// push_heap, pop_heap and make_heap inline it. Passed as a function
/// pointer, every comparison of a sift was an out-of-line call, and that
/// call, not the stale elements, was the pool's avoidable cost.
struct Later {
  bool operator()(const GreedyCore::Pooled& a,
                  const GreedyCore::Pooled& b) const {
    return b.key < a.key;
  }
};

/// The one service order: highest value, then arrival (task ids increase
/// in arrival order). A function object for the same reason as Later.
struct ServesBefore {
  bool operator()(const GreedyCore::Task& a, const GreedyCore::Task& b) const {
    if (a.value != b.value) return a.value > b.value;
    return a.id < b.id;
  }
};

}  // namespace

void GreedyCore::restart(const OnlineGreedyConfig& config,
                         Slot::rep_type first_slot) {
  config_ = config;
  first_slot_ = first_slot;
  current_slot_ = first_slot;
  entries_.clear();
  heap_.clear();
  live_ = 0;
  stale_ = 0;
  tasks_.clear();
  calendar_.fill(DepartureList{});
  far_departures_.clear();
  winners_.clear();
  slots_.clear();
}

std::size_t GreedyCore::retained_bytes() const {
  return capacity_bytes(entries_, heap_, tasks_, far_departures_, winners_,
                        slots_, step_.assignments, step_.unserved,
                        step_.departing);
}

bool GreedyCore::admits(Money cost) const {
  return !config_.reserve_price || cost <= *config_.reserve_price;
}

bool GreedyCore::screen(int id, const model::Bid& bid) const {
  const bool admitted = admits(bid.claimed_cost);
  obs::log_event([&] {
    obs::Event event(admitted ? "bid_admitted" : "bid_rejected");
    event.phone = id;
    event.slot = static_cast<std::int32_t>(bid.window.begin().value());
    if (!admitted) {
      event.with("reason", std::string("reserve"))
          .with("bid", bid.claimed_cost)
          .with("reserve", *config_.reserve_price);
      return event;
    }
    event.with("bid", bid.claimed_cost)
        .with("departs", static_cast<std::int64_t>(bid.window.end().value()));
    return event;
  });
  return admitted;
}

GreedyCore::Handle GreedyCore::admit(int id, const model::Bid& bid) {
  MCS_EXPECTS(bid.window.contains(Slot{current_slot_}),
              "bids join the pool within their reported window");
  MCS_EXPECTS(admits(bid.claimed_cost), "bid above the platform reserve");
  const auto handle = static_cast<Handle>(entries_.size());
  entries_.push_back(Entry{id, bid});
  heap_.push_back(Pooled{PoolBid{bid.claimed_cost.micros(), id}, handle});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  const Slot::rep_type end = bid.window.end().value();
  if (std::int64_t{end} - current_slot_ < kCalendarSlots) {
    enlist_departure(handle, end);
  } else {
    far_departures_.emplace_back(end, handle);
    std::push_heap(far_departures_.begin(), far_departures_.end(),
                   std::greater<>{});
  }
  return handle;
}

void GreedyCore::enlist_departure(Handle handle, Slot::rep_type slot) {
  DepartureList& list = departures_in(slot);
  if (list.tail >= 0) {
    entries_[static_cast<std::size_t>(list.tail)].next_departing = handle;
  } else {
    list.head = handle;
  }
  list.tail = handle;
}

void GreedyCore::drop_departed_front() {
  while (!heap_.empty() && !entry(heap_.front().handle).pooled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_;
  }
}

const GreedyCore::Step& GreedyCore::step() {
  const Slot::rep_type t = current_slot_;
  // With the weighted-query extension, serve high-value tasks first, so a
  // dry pool starves only the least valuable ones. With uniform nu this is
  // plain arrival order, and the sort is skipped.
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), ServesBefore{})) {
    std::sort(tasks_.begin(), tasks_.end(), ServesBefore{});
  }
  // The candidate pool at the start of the slot, cheapest first --
  // Fig. 4's "dynamic pool" as a replayable record.
  obs::log_event([&] {
    obs::Event event("slot_pool");
    event.slot = static_cast<std::int32_t>(t);
    std::vector<PoolBid> ordered;
    ordered.reserve(live_);
    for (const Pooled& pooled : heap_) {
      if (entry(pooled.handle).pooled) ordered.push_back(pooled.key);
    }
    std::sort(ordered.begin(), ordered.end());
    std::vector<std::int64_t> ids;
    std::vector<std::int64_t> costs_micros;
    ids.reserve(ordered.size());
    costs_micros.reserve(ordered.size());
    for (const PoolBid& pooled : ordered) {
      ids.push_back(pooled.phone);
      costs_micros.push_back(pooled.cost_micros);
    }
    event.with("pool", std::move(ids))
        .with("pool_costs_micros", std::move(costs_micros))
        .with("tasks", static_cast<std::int64_t>(tasks_.size()));
    return event;
  });
  step_.slot = t;
  step_.assignments.clear();
  step_.unserved.clear();
  step_.departing.clear();

  SlotLog log;
  for (const Task& task : tasks_) {
    // Served tasks form a prefix of the service order: once the pool is
    // dry, or its cheapest bid exceeds a task's value, the same holds for
    // every later (no more valuable) task.
    drop_departed_front();
    if (live_ > 0 &&
        (!config_.allocate_only_profitable ||
         Money::from_micros(heap_.front().key.cost_micros) <= task.value)) {
      const Handle winner = heap_.front().handle;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      --live_;
      Entry& won = entries_[static_cast<std::size_t>(winner)];
      won.win_slot = t;
      won.pooled = false;
      winners_.push_back(winner);
      step_.assignments.push_back(Assignment{task, winner});
      log.dearest = winner;
      log.last_value = task.value;
      continue;
    }
    step_.unserved.push_back(task);
    const Money cap = scarce_cap_for(task.value, config_);
    log.scarce_cap = std::max(log.scarce_cap.value_or(Money{}), cap);
  }
  drop_departed_front();
  step_.runner_up.reset();
  if (live_ > 0) step_.runner_up = heap_.front().handle;
  log.runner_up = step_.runner_up;
  step_.pool_left = live_;
  slots_.push_back(log);
  tasks_.clear();
  log_step();

  // A bid reporting window [a~, d~] leaves the pool after slot d~. Its heap
  // element goes stale; once stale elements outnumber live ones, one pass
  // drops them all, which keeps the heap within twice the pool.
  DepartureList& due = departures_in(t);
  for (Handle leaving = due.head; leaving >= 0;) {
    Entry& left = entries_[static_cast<std::size_t>(leaving)];
    if (left.pooled) {
      left.pooled = false;
      --live_;
      ++stale_;
    }
    step_.departing.push_back(leaving);
    leaving = left.next_departing;
  }
  due = DepartureList{};
  if (stale_ > live_) {
    std::erase_if(heap_, [&](const Pooled& pooled) {
      return !entry(pooled.handle).pooled;
    });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }
  ++current_slot_;
  // The ring now reaches slot t + kCalendarSlots, in the list t vacated:
  // far departures due there move in, in admission order, before any bid
  // admitted from now on can join that list.
  const std::int64_t reach = std::int64_t{t} + kCalendarSlots;
  while (!far_departures_.empty() && far_departures_.front().first == reach) {
    const Handle moving = far_departures_.front().second;
    std::pop_heap(far_departures_.begin(), far_departures_.end(),
                  std::greater<>{});
    far_departures_.pop_back();
    enlist_departure(moving, static_cast<Slot::rep_type>(reach));
  }
  return step_;
}

void GreedyCore::log_step() const {
  const std::int32_t slot = static_cast<std::int32_t>(step_.slot);
  for (std::size_t k = 0; k < step_.assignments.size(); ++k) {
    obs::log_event([&] {
      const Assignment& assignment = step_.assignments[k];
      const Entry& chosen = entry(assignment.winner);
      obs::Event event("task_assigned");
      event.slot = slot;
      event.task = assignment.task.id.value();
      event.phone = chosen.id;
      event.with("bid", chosen.bid.claimed_cost)
          .with("task_value", assignment.task.value);
      // The runner-up bid (next-cheapest pool member) documents how close
      // the decision was; absent when the pool emptied.
      const std::optional<Handle> runner_up =
          k + 1 < step_.assignments.size()
              ? std::optional(step_.assignments[k + 1].winner)
              : step_.runner_up;
      if (runner_up) {
        const Entry& next = entry(*runner_up);
        event.with("runner_up_phone", static_cast<std::int64_t>(next.id))
            .with("runner_up_bid", next.bid.claimed_cost);
      }
      return event;
    });
  }
  for (const Task& task : step_.unserved) {
    obs::log_event([&] {
      obs::Event event("task_unserved");
      event.slot = slot;
      event.task = task.id.value();
      if (!step_.runner_up) {
        event.with("reason", std::string("pool_empty"))
            .with("task_value", task.value);
        return event;
      }
      // The cheapest remaining bid exceeds this task's value, so no
      // profitable assignment exists; the phone stays in the pool.
      const Entry& cheapest = entry(*step_.runner_up);
      event.with("reason", std::string("unprofitable"))
          .with("cheapest_bid", cheapest.bid.claimed_cost)
          .with("cheapest_phone", static_cast<std::int64_t>(cheapest.id))
          .with("task_value", task.value);
      return event;
    });
  }
}

GreedySlotRecord GreedyCore::slot_record(const Step& step) const {
  GreedySlotRecord record;
  record.slot = Slot{step.slot};
  for (const Assignment& assignment : step.assignments) {
    record.winners.push_back(PhoneId{entry(assignment.winner).id});
  }
  for (const Task& task : step.unserved) record.unserved.push_back(task.id);
  if (step.runner_up) record.runner_up = PhoneId{entry(*step.runner_up).id};
  return record;
}

Settlement GreedyCore::settle(Handle winner) const {
  const Entry& own = entry(winner);
  const Slot::rep_type first = own.win_slot;
  const Slot::rep_type last = own.bid.window.end().value();
  MCS_EXPECTS(first != 0, "settle requires an allocated bid");
  MCS_EXPECTS(last < current_slot_,
              "settle requires the winner's whole window to be stepped");
  Settlement settlement;
  settlement.slots_walked = last - first + 1;
  settlement.payment = own.bid.claimed_cost;  // Algorithm 2 line 1: p_i <- b_i
  // The counterfactual's pool lacks bid x (`missing`) until the two runs
  // agree (`missing` is then -1).
  Handle missing = winner;
  for (Slot::rep_type t = first; t <= last; ++t) {
    const SlotLog& log = slots_[static_cast<std::size_t>(t - first_slot_)];
    std::optional<Money> scarce_cap = log.scarce_cap;
    std::optional<Handle> dearest = log.dearest;
    if (missing >= 0 && entry(missing).win_slot == t) {
      // The missing bid won here, so its task goes to the runner-up.
      const std::optional<Handle> runner_up = log.runner_up;
      if (runner_up && (!config_.allocate_only_profitable ||
                        cost_of(*runner_up) <= log.last_value)) {
        dearest = runner_up;
        missing = *runner_up;
      } else {
        // Nobody may take the freed task: the slot serves one task fewer,
        // the last-served one goes unserved (i's critical value for it is
        // unbounded), and the pools agree from here on. The counterfactual
        // dearest is the dearest winner other than x; the factual one
        // stands in, because when that is x itself its cost is already in
        // the payment (x is the winner, or set an earlier slot's dearest).
        scarce_cap = std::max(scarce_cap.value_or(Money{}),
                              scarce_cap_for(log.last_value, config_));
        missing = -1;
      }
    }
    if (scarce_cap) {
      settlement.scarce = true;
      settlement.scarce_cap = std::max(settlement.scarce_cap, *scarce_cap);
    }
    // Line 6: the r_t-th (highest-cost) winner of the counterfactual slot.
    if (dearest && cost_of(*dearest) > settlement.payment) {
      settlement.payment = cost_of(*dearest);
      settlement.setter_phone = PhoneId{entry(*dearest).id};
      settlement.setter_slot = Slot{t};
    }
  }
  apply_scarcity_policy(settlement, config_);
  return settlement;
}

void log_payment_derivation(const GreedyCore::Entry& winner,
                            const Settlement& settlement) {
  obs::log_event([&] {
    obs::Event event("payment_derivation");
    event.phone = winner.id;
    event.slot = static_cast<std::int32_t>(winner.win_slot);
    event.with("rule", std::string("algorithm2.counterfactual_max"))
        .with("payment", settlement.payment)
        .with("own_bid", winner.bid.claimed_cost)
        .with("window_end",
              static_cast<std::int64_t>(winner.bid.window.end().value()));
    if (settlement.setter_phone) {
      event.with("set_by_phone",
                 static_cast<std::int64_t>(settlement.setter_phone->value()))
          .with("set_in_slot",
                static_cast<std::int64_t>(settlement.setter_slot.value()));
    }
    event.with("scarce", settlement.scarce);
    if (settlement.scarce) event.with("scarce_cap", settlement.scarce_cap);
    event.with("scarce_applied", settlement.scarce_applied);
    return event;
  });
}

}  // namespace mcs::auction
