// Road-traffic delay estimation (the VTrack-style application from the
// paper's introduction [4]) with a rush-hour profile: task demand is
// time-varying within the round, which is exactly the "random arrivals of
// tasks" regime the online mechanism is designed for.
//
// The double-hump commute curve is expressed through the workload model's
// non-homogeneous rate profiles (WorkloadConfig::*_rate_profile), then the
// online auction is walked slot by slot, printing the dynamic pool and the
// winners -- the Fig. 4 view, at application scale.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <variant>
#include <vector>

#include "analysis/metrics.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "io/table.hpp"
#include "model/workload.hpp"
#include "obs/event_log.hpp"

int main() {
  using namespace mcs;

  constexpr Slot::rep_type kHours = 24;  // one "day" of hourly slots

  // Drivers join around the commute peaks; probe requests (tasks) follow
  // the same double-hump demand curve.
  std::vector<double> commute;
  for (Slot::rep_type hour = 1; hour <= kHours; ++hour) {
    const double h = static_cast<double>(hour);
    const double morning = std::exp(-0.5 * std::pow((h - 8.0) / 2.0, 2.0));
    const double evening = std::exp(-0.5 * std::pow((h - 18.0) / 2.0, 2.0));
    commute.push_back(0.3 + 3.0 * (morning + evening));
  }

  model::WorkloadConfig rush;
  rush.num_slots = kHours;
  rush.phone_arrival_rate = 2.0;  // base drivers/hour, scaled by the curve
  rush.task_arrival_rate = 1.0;   // base probe requests/hour
  rush.mean_active_length = 3.0;  // hours a driver keeps the app on
  rush.mean_cost = 25.0;          // cellular data + battery, cents
  rush.task_value = Money::from_units(60);
  rush.phone_rate_profile = commute;
  rush.task_rate_profile = commute;

  Rng rng(77);
  const model::Scenario scenario = model::generate_scenario(rush, rng);
  std::cout << "Rush-hour probe market: " << scenario.phone_count()
            << " drivers, " << scenario.task_count()
            << " probe requests over " << kHours << " hours\n\n";

  const model::BidProfile bids = scenario.truthful_bids();
  // Each slot's candidate pool is its slot_pool event; the trail holds one
  // record per bid, per task and per slot, and the log header.
  obs::RingEventSink trail(static_cast<std::size_t>(
      scenario.phone_count() + scenario.task_count() + kHours + 1));
  auction::GreedyRun run;
  {
    obs::EventLog log(&trail);
    const obs::ScopedEventLog install(&log);
    run = auction::run_greedy_allocation(scenario, bids);
  }
  std::vector<std::size_t> pool_sizes;
  for (const obs::Event& event : trail.events()) {
    if (event.type != "slot_pool") continue;
    for (const auto& [key, value] : event.attrs) {
      if (key == "pool") {
        pool_sizes.push_back(std::get<std::vector<std::int64_t>>(value).size());
      }
    }
  }

  io::TextTable timeline({"hour", "pool", "probes", "hired", "marginal cost"});
  for (const auction::GreedySlotRecord& record : run.slots) {
    Money dearest;
    for (const PhoneId winner : record.winners) {
      dearest = std::max(
          dearest, bids[static_cast<std::size_t>(winner.value())].claimed_cost);
    }
    const auto probes = record.winners.size() + record.unserved.size();
    timeline.row()
        .cell(static_cast<std::int64_t>(record.slot.value()))
        .cell(static_cast<std::int64_t>(pool_sizes.at(
            static_cast<std::size_t>(record.slot.value() - 1))))
        .cell(static_cast<std::int64_t>(probes))
        .cell(static_cast<std::int64_t>(record.winners.size()))
        .cell(record.winners.empty() ? std::string("-") : dearest.to_string());
  }
  timeline.print(std::cout);

  const auction::OnlineGreedyMechanism mechanism;
  const analysis::RoundMetrics metrics = analysis::compute_metrics(
      scenario, bids, mechanism.run(scenario, bids));
  std::cout << "\nEnd-of-day settlement (truthful critical-value payments):\n"
            << analysis::describe(metrics)
            << "\nDemand peaks strain the pool around 8:00 and 18:00 -- the "
               "mechanism hires pricier drivers exactly there, and pays "
               "every winner its critical value so none benefits from "
               "hiding its availability window.\n";
  return 0;
}
