#include "auction/counterfactual.hpp"

#include <algorithm>

#include "auction/critical_value.hpp"
#include "auction/greedy_core.hpp"
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
  // The internal factual pass exists only to record the slot pools probes
  // fork from; its allocation decisions are not decisions of any recorded
  // run.
  const obs::ScopedEventLog suppress_factual(nullptr);
  factual_ = run_greedy_allocation(scenario_, bids_, config_).slots;
  obs::count("auction.counterfactual.engine_builds");
}

bool CounterfactualEngine::wins_with_cost(PhoneId phone, Money cost) const {
  const model::Bid& own = bids_[static_cast<std::size_t>(phone.value())];
  if (config_.reserve_price && cost > *config_.reserve_price) {
    count_probe_fork(0, 0);
    return false;  // above the platform reserve: never admitted
  }
  const Slot::rep_type fork = own.window.begin().value();
  const Slot::rep_type last = std::min(
      own.window.end().value(), static_cast<Slot::rep_type>(factual_.size()));
  if (fork > last) {
    count_probe_fork(0, 0);
    return false;
  }

  // A probe is bookkeeping of a search, not a decision of any recorded
  // run: the fork's slot_pool and task_assigned events stay out of the
  // caller's trail.
  const obs::ScopedEventLog suppress_fork(nullptr);
  // One core per thread, restarted for every probe, so warm probes reuse
  // its buffers instead of regrowing them.
  thread_local GreedyCore core;
  core.restart(config_, fork);
  auto task = std::partition_point(
      scenario_.tasks.begin(), scenario_.tasks.end(),
      [&](const model::Task& queued) { return queued.slot.value() < fork; });
  GreedyCore::Handle probed = 0;
  for (Slot::rep_type t = fork; t <= last; ++t) {
    // The slot's factual pool, after its arrivals: at the fork it is the
    // whole pool (the bids that arrived earlier and are still unallocated
    // are the same in both runs), later only the bids arriving at t.
    const GreedySlotRecord& record = factual_[static_cast<std::size_t>(t) - 1];
    for (const PhoneId member : record.pool) {
      const model::Bid& bid = bids_[static_cast<std::size_t>(member.value())];
      if (t == fork ? member == phone : bid.window.begin().value() != t) {
        continue;
      }
      (void)core.admit(member.value(), bid);
    }
    if (t == fork) probed = core.admit(phone.value(), {own.window, cost});
    for (; task != scenario_.tasks.end() && task->slot.value() == t; ++task) {
      core.add_task(GreedyCore::Task{task->id, scenario_.value_of(task->id)});
    }
    (void)core.step();
    if (core.entry(probed).win_slot != 0) {
      // Allocated once means allocated for good: exit early.
      count_probe_fork(t - fork + 1, fork - 1);
      return true;
    }
  }
  count_probe_fork(last - fork + 1, fork - 1);
  return false;
}

CounterfactualEngine::CriticalValueProbe CounterfactualEngine::
    critical_value_of(PhoneId phone) const {
  CriticalValueProbe probe;
  probe.winnable = wins_with_cost(phone, Money{});
  if (!probe.winnable) return probe;
  probe.critical = greedy_critical_value(*this, phone);
  return probe;
}

}  // namespace mcs::auction
