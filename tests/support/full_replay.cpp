#include "support/full_replay.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "obs/event_log.hpp"

namespace mcs::test_support {

namespace {

using auction::GreedyRun;
using auction::GreedySlotRecord;
using auction::OnlineGreedyConfig;
using auction::Settlement;

/// Algorithm 2 for one winner: p_i starts at b_i (line 1) and rises to the
/// dearest slot winner of the run without B_i over [t'_i, d~_i].
Settlement settle_by_rerun(const model::Scenario& scenario,
                           const model::BidProfile& bids,
                           const OnlineGreedyConfig& config, PhoneId winner,
                           Slot win_slot) {
  const model::Bid& own_bid = bids[static_cast<std::size_t>(winner.value())];
  const GreedyRun without = run_greedy_without(scenario, bids, config, winner);

  Settlement settlement;
  settlement.payment = own_bid.claimed_cost;
  for (const GreedySlotRecord& record : without.slots) {
    if (record.slot < win_slot || record.slot > own_bid.window.end()) {
      continue;  // only slots in [t'_i, d~_i]
    }
    for (const TaskId task : record.unserved) {
      // Without i this task goes unserved: i's critical value for it is
      // unbounded, so the scarcity policy's cap for the task applies.
      settlement.scarce = true;
      settlement.scarce_cap =
          std::max(settlement.scarce_cap,
                   auction::scarce_cap_for(scenario.value_of(task), config));
    }
    if (!record.winners.empty()) {
      // Line 6: the r_t-th (highest-cost) winner of the slot.
      const PhoneId last = record.winners.back();
      const Money rival =
          bids[static_cast<std::size_t>(last.value())].claimed_cost;
      if (rival > settlement.payment) {
        settlement.payment = rival;
        settlement.setter_phone = last;
        settlement.setter_slot = record.slot;
      }
    }
  }
  auction::apply_scarcity_policy(settlement, config);
  return settlement;
}

}  // namespace

GreedyRun run_greedy_without(const model::Scenario& scenario,
                             const model::BidProfile& bids,
                             const OnlineGreedyConfig& config,
                             PhoneId excluded) {
  const auto cut = static_cast<std::ptrdiff_t>(excluded.value());
  model::Scenario reduced = scenario;
  reduced.phones.erase(reduced.phones.begin() + cut);
  model::BidProfile reduced_bids = bids;
  reduced_bids.erase(reduced_bids.begin() + cut);

  GreedyRun run;
  {
    // The counterfactual's decisions are not decisions of any recorded run.
    const obs::ScopedEventLog suppress(nullptr);
    run = auction::run_greedy_allocation(reduced, reduced_bids, config);
  }

  const auto original = [&](PhoneId phone) {
    return phone.value() < excluded.value() ? phone : PhoneId{phone.value() + 1};
  };
  auction::Allocation allocation(scenario.task_count(), scenario.phone_count());
  for (int k = 0; k < scenario.task_count(); ++k) {
    if (const auto phone = run.allocation.phone_for(TaskId{k})) {
      allocation.assign(TaskId{k}, original(*phone));
    }
  }
  run.allocation = std::move(allocation);
  for (GreedySlotRecord& record : run.slots) {
    for (PhoneId& phone : record.winners) phone = original(phone);
    if (record.runner_up) record.runner_up = original(*record.runner_up);
  }
  return run;
}

FullReplay full_replay(const model::Scenario& scenario,
                       const model::BidProfile& bids,
                       const OnlineGreedyConfig& config) {
  FullReplay replay;
  {
    const obs::ScopedEventLog suppress(nullptr);
    replay.allocation =
        auction::run_greedy_allocation(scenario, bids, config).allocation;
  }
  replay.payments.assign(scenario.phones.size(), Money{});
  for (const model::Task& task : scenario.tasks) {
    const auto winner = replay.allocation.phone_for(task.id);
    if (!winner) continue;
    const Settlement settlement =
        settle_by_rerun(scenario, bids, config, *winner, task.slot);
    replay.payments[static_cast<std::size_t>(winner->value())] =
        settlement.payment;
    replay.winners.push_back({*winner, task.slot, settlement});
  }
  return replay;
}

}  // namespace mcs::test_support
