#include "auction/counterfactual.hpp"

#include <algorithm>
#include <set>

#include "auction/critical_value.hpp"
#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::auction {

namespace {

void count_probe_fork(std::int64_t replayed, std::int64_t skipped) {
  obs::MetricsRegistry* const registry = obs::current_registry();
  if (registry == nullptr) return;
  registry->counter("auction.counterfactual.probe_forks").add(1);
  registry->counter("auction.counterfactual.slots_replayed").add(replayed);
  registry->counter("auction.counterfactual.slots_skipped").add(skipped);
}

}  // namespace

CounterfactualEngine::CounterfactualEngine(const model::Scenario& scenario,
                                           const model::BidProfile& bids,
                                           const OnlineGreedyConfig& config)
    : scenario_(scenario), bids_(bids), config_(config) {
  // The internal factual pass exists only to capture checkpoints; its
  // allocation decisions are not decisions of any recorded run.
  const obs::ScopedEventLog suppress_factual(nullptr);
  (void)run_greedy_allocation(scenario_, bids_, config_, std::nullopt, 0,
                              &checkpoints_);
  obs::count("auction.counterfactual.engine_builds");
  tasks_per_slot_ = scenario_.tasks_per_slot();
  // A phone reporting window [a~, d~] is swept out of the pool at the
  // start of slot d~ + 1; index that slot so forks erase only actual
  // departures (same shape as the arrivals index).
  departures_.assign(static_cast<std::size_t>(scenario_.num_slots) + 2, {});
  for (const std::vector<int>& slot_arrivals : checkpoints_.arrivals) {
    for (const int phone : slot_arrivals) {
      const Slot::rep_type departs_after =
          bids_[static_cast<std::size_t>(phone)].window.end().value() + 1;
      departures_[static_cast<std::size_t>(departs_after)].push_back(phone);
    }
  }
}

bool CounterfactualEngine::wins_with_cost(PhoneId phone, Money cost) const {
  const model::Bid& own = bids_[static_cast<std::size_t>(phone.value())];
  if (config_.reserve_price && cost > *config_.reserve_price) {
    count_probe_fork(0, 0);
    return false;  // above the platform reserve: never admitted
  }
  const Slot::rep_type fork = own.window.begin().value();
  const Slot::rep_type last = std::min(own.window.end().value(), horizon());
  if (fork > last) {
    count_probe_fork(0, 0);
    return false;
  }

  const GreedyCheckpoints::SlotStart& start =
      checkpoints_.slots[static_cast<std::size_t>(fork)];
  std::set<PoolBid> pool(start.pool.begin(), start.pool.end());
  std::size_t next_task = start.next_task;
  const PoolBid probe{cost.micros(), phone.value()};

  std::vector<TaskId> slot_tasks;
  for (Slot::rep_type t = fork; t <= last; ++t) {
    for (const int p : checkpoints_.arrivals[static_cast<std::size_t>(t)]) {
      if (p == phone.value()) continue;  // replaced by the probed bid
      pool.insert(
          PoolBid{bids_[static_cast<std::size_t>(p)].claimed_cost.micros(), p});
    }
    if (t == fork) pool.insert(probe);
    for (const int p : departures_[static_cast<std::size_t>(t)]) {
      if (p == phone.value()) continue;
      pool.erase(
          PoolBid{bids_[static_cast<std::size_t>(p)].claimed_cost.micros(), p});
    }

    const int r_t = tasks_per_slot_[static_cast<std::size_t>(t)];
    slot_tasks.clear();
    for (int k = 0; k < r_t; ++k) {
      slot_tasks.push_back(
          TaskId{static_cast<int>(next_task + static_cast<std::size_t>(k))});
    }
    next_task += static_cast<std::size_t>(r_t);
    std::stable_sort(slot_tasks.begin(), slot_tasks.end(),
                     [&](TaskId a, TaskId b) {
                       return scenario_.value_of(a) > scenario_.value_of(b);
                     });

    for (const TaskId task : slot_tasks) {
      if (pool.empty()) continue;
      const PoolBid chosen = *pool.begin();
      if (config_.allocate_only_profitable &&
          Money::from_micros(chosen.cost_micros) > scenario_.value_of(task)) {
        continue;  // cheapest bid unprofitable: the phone stays pooled
      }
      pool.erase(pool.begin());
      if (chosen.phone == phone.value()) {
        // Allocated once means allocated for good: exit early.
        count_probe_fork(t - fork + 1,
                   fork - 1);
        return true;
      }
    }
  }
  count_probe_fork(last - fork + 1, fork - 1);
  return false;
}

CounterfactualEngine::CriticalValueProbe CounterfactualEngine::
    critical_value_of(PhoneId phone) const {
  CriticalValueProbe probe;
  {
    // A probe is bookkeeping, not a decision of any recorded run.
    const obs::ScopedEventLog suppress_inner(nullptr);
    probe.winnable = wins_with_cost(phone, Money{});
  }
  if (!probe.winnable) return probe;
  probe.critical = greedy_critical_value(*this, phone);
  return probe;
}

}  // namespace mcs::auction
