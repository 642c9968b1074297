#include "auction/counterfactual.hpp"

#include <algorithm>

#include "auction/critical_value.hpp"
#include "auction/greedy_core.hpp"
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
                                           const OnlineGreedyConfig& config,
                                           const Allocation& factual)
    : scenario_(scenario), bids_(bids), config_(config) {
  MCS_EXPECTS(factual.task_count() == scenario_.task_count() &&
                  factual.phone_count() == scenario_.phone_count() &&
                  bids_.size() == scenario_.phones.size(),
              "counterfactual engine: allocation and bids must match the "
              "scenario");
  obs::count("auction.counterfactual.engine_builds");
  win_slot_.assign(bids_.size(), 0);
  for (const model::Task& task : scenario_.tasks) {
    if (const std::optional<PhoneId> winner = factual.phone_for(task.id)) {
      win_slot_[static_cast<std::size_t>(winner->value())] =
          task.slot.value();
    }
  }
  for (int i = 0; i < scenario_.phone_count(); ++i) {
    const Money cost = bids_[static_cast<std::size_t>(i)].claimed_cost;
    if (!config_.reserve_price || cost <= *config_.reserve_price) {
      arrivals_.push_back(i);
    }
  }
  std::stable_sort(arrivals_.begin(), arrivals_.end(), [&](int a, int b) {
    return arrival_of(a) < arrival_of(b);
  });
}

bool CounterfactualEngine::wins_with_cost(PhoneId phone, Money cost) const {
  const model::Bid& own = bids_[static_cast<std::size_t>(phone.value())];
  if (config_.reserve_price && cost > *config_.reserve_price) {
    count_probe_fork(0, 0);
    return false;  // above the platform reserve: never admitted
  }
  const Slot::rep_type fork = own.window.begin().value();
  const Slot::rep_type last =
      std::min(own.window.end().value(), scenario_.num_slots);
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
  // At the fork the pool is the factual one: the bids that arrived by then,
  // are still active and had not won are the same in both runs.
  auto arrival = arrivals_.begin();
  for (; arrival != arrivals_.end() && arrival_of(*arrival) <= fork;
       ++arrival) {
    const model::Bid& bid = bids_[static_cast<std::size_t>(*arrival)];
    const Slot::rep_type won = win_slot_[static_cast<std::size_t>(*arrival)];
    if (*arrival == phone.value() || bid.window.end().value() < fork ||
        (won != 0 && won < fork)) {
      continue;
    }
    (void)core.admit(*arrival, bid);
  }
  const GreedyCore::Handle probed =
      core.admit(phone.value(), {own.window, cost});
  for (Slot::rep_type t = fork; t <= last; ++t) {
    // Later slots admit only their own arrivals.
    for (; arrival != arrivals_.end() && arrival_of(*arrival) == t;
         ++arrival) {
      (void)core.admit(*arrival, bids_[static_cast<std::size_t>(*arrival)]);
    }
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
