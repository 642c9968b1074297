#include "auction/online_greedy.hpp"

#include "auction/greedy_core.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::auction {

namespace {

/// Algorithm 1 over a whole scenario, stepping `core` slot by slot and
/// recording the run (events, per-slot records, counters) as it goes.
GreedyRun allocate_on(GreedyCore& core, const model::Scenario& scenario,
                      const model::BidProfile& bids) {
  model::validate_bids(scenario, bids);

  // Per-slot work counters, accumulated locally and published once at the
  // end of the run (one registry access instead of one per slot).
  obs::MetricsRegistry* const registry = obs::current_registry();
  static const std::vector<double> kPoolBuckets = {0,  1,   2,   5,   10,  20,
                                                   50, 100, 200, 500, 1000};
  obs::Histogram* const pool_hist =
      registry != nullptr
          ? &registry->histogram("auction.greedy.pool_size", &kPoolBuckets)
          : nullptr;
  std::int64_t pool_insertions = 0;
  std::int64_t tasks_assigned = 0;
  std::int64_t tasks_unserved = 0;

  // Arrival index: phones grouped by reported arrival slot. (Under
  // allocate_only_profitable, eligibility is checked per task at
  // allocation time, since the weighted-query extension gives tasks
  // individual values.)
  std::vector<std::vector<int>> arrivals(
      static_cast<std::size_t>(scenario.num_slots) + 1);
  for (int i = 0; i < scenario.phone_count(); ++i) {
    const model::Bid& bid = bids[static_cast<std::size_t>(i)];
    // Above the platform reserve: never admitted.
    if (!core.screen(i, bid)) continue;
    arrivals[static_cast<std::size_t>(bid.window.begin().value())].push_back(i);
  }

  const std::vector<int> tasks_per_slot = scenario.tasks_per_slot();
  // Tasks of each slot in id order (dense ids sorted by slot make this a
  // simple running cursor).
  std::size_t next_task = 0;

  GreedyRun run;
  run.allocation = Allocation(scenario.task_count(), scenario.phone_count());
  run.slots.reserve(static_cast<std::size_t>(scenario.num_slots));

  for (Slot::rep_type t = 1; t <= scenario.num_slots; ++t) {
    // Add newly arriving bids (Algorithm 1 line 3); the core swept the
    // departed ones at the end of the previous slot.
    for (const int phone : arrivals[static_cast<std::size_t>(t)]) {
      (void)core.admit(phone, bids[static_cast<std::size_t>(phone)]);
      ++pool_insertions;
    }

    // Allocate this slot's tasks to the cheapest pool members (lines 5-8).
    const int r_t = tasks_per_slot[static_cast<std::size_t>(t)];
    for (int k = 0; k < r_t; ++k) {
      const TaskId task{static_cast<int>(next_task + static_cast<std::size_t>(k))};
      MCS_ASSERT(scenario.tasks[static_cast<std::size_t>(task.value())].slot ==
                     Slot{t},
                 "task cursor out of sync with slot");
      core.add_task(GreedyCore::Task{task, scenario.value_of(task)});
    }
    next_task += static_cast<std::size_t>(r_t);
    const GreedyCore::Step& step = core.step();
    GreedySlotRecord record = core.slot_record(step);
    for (std::size_t k = 0; k < record.winners.size(); ++k) {
      run.allocation.assign(step.assignments[k].task.id, record.winners[k]);
    }
    tasks_assigned += static_cast<std::int64_t>(record.winners.size());
    tasks_unserved += static_cast<std::int64_t>(record.unserved.size());
    if (pool_hist != nullptr) {
      pool_hist->observe(static_cast<double>(step.pool_left));
    }

    run.slots.push_back(std::move(record));
  }

  if (registry != nullptr) {
    registry->counter("auction.greedy.allocation_runs").add(1);
    registry->counter("auction.greedy.slots_processed")
        .add(static_cast<std::int64_t>(scenario.num_slots));
    registry->counter("auction.greedy.pool_insertions").add(pool_insertions);
    registry->counter("auction.greedy.tasks_assigned").add(tasks_assigned);
    registry->counter("auction.greedy.tasks_unserved").add(tasks_unserved);
  }
  return run;
}

}  // namespace

GreedyRun run_greedy_allocation(const model::Scenario& scenario,
                                const model::BidProfile& bids,
                                const OnlineGreedyConfig& config) {
  GreedyCore core(config);
  return allocate_on(core, scenario, bids);
}

Outcome OnlineGreedyMechanism::run(const model::Scenario& scenario,
                                   const model::BidProfile& bids) const {
  const obs::TraceSpan span("online_greedy.run");
  scenario.validate();

  Outcome outcome;
  GreedyCore core(config_);
  {
    const obs::TraceSpan allocation_span("online_greedy.allocation");
    outcome.allocation = allocate_on(core, scenario, bids).allocation;
  }
  outcome.payments.assign(scenario.phones.size(), Money{});

  {
    const obs::TraceSpan payment_span("online_greedy.payments");
    std::int64_t slots_walked = 0;
    // Winners in allocation order, each settled once its window is over.
    for (const GreedyCore::Handle handle : core.winners()) {
      const GreedyCore::Entry& won = core.entry(handle);
      // Each derivation is one evaluation of i's critical value -- the
      // over-time analogue of a bisection probe (docs/observability.md).
      obs::count("auction.critical_value.probes");
      const Settlement settlement = core.settle(handle);
      slots_walked += settlement.slots_walked;
      log_payment_derivation(won, settlement);
      outcome.payments[static_cast<std::size_t>(won.id)] = settlement.payment;
    }
    if (slots_walked > 0) {
      obs::count("auction.settlement.slots_walked", slots_walked);
    }
  }

  outcome.validate(scenario, bids);
  return outcome;
}

}  // namespace mcs::auction
