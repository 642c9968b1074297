#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/wire.hpp"

namespace mcs::serve {

model::Scenario loadgen_scenario(const LoadGenConfig& config,
                                 std::int64_t round) {
  // The shared (seed, round) fork discipline: round k's scenario is
  // reproducible without replaying rounds 0..k-1, and any driver with the
  // same (workload, seed) sees the same stream.
  return model::round_scenario(config.workload, config.seed, round);
}

std::vector<ServeEvent> round_events(std::int64_t round,
                                     const model::Scenario& scenario,
                                     const model::BidProfile& bids) {
  std::vector<ServeEvent> events;
  // round_open + close + one tick per slot + one event per task and bid.
  events.reserve(2 + static_cast<std::size_t>(scenario.num_slots) +
                 scenario.tasks.size() + bids.size());
  events.push_back(round_open(round, scenario.num_slots, scenario.task_value));

  std::size_t task_cursor = 0;
  for (Slot::rep_type t = 1; t <= scenario.num_slots; ++t) {
    while (task_cursor < scenario.tasks.size() &&
           scenario.tasks[task_cursor].slot.value() == t) {
      const model::Task& task = scenario.tasks[task_cursor];
      events.push_back(task_arrived(round, Slot{t}, task.id, task.value));
      ++task_cursor;
    }
    for (std::size_t i = 0; i < bids.size(); ++i) {
      if (bids[i].window.begin().value() != t) continue;
      events.push_back(bid_submitted(
          round, PhoneId{static_cast<PhoneId::rep_type>(i)}, bids[i]));
    }
    events.push_back(slot_tick(round, Slot{t}));
  }
  events.push_back(round_close(round));
  return events;
}

std::int64_t generate_events(
    const LoadGenConfig& config,
    const std::function<bool(const ServeEvent&)>& emit) {
  std::int64_t emitted = 0;
  for (std::int64_t round = 0; round < config.rounds; ++round) {
    const model::Scenario scenario = loadgen_scenario(config, round);
    const model::BidProfile bids = scenario.truthful_bids();
    for (const ServeEvent& event : round_events(round, scenario, bids)) {
      if (!emit(event)) return emitted;
      ++emitted;
    }
  }
  return emitted;
}

namespace {

std::int64_t write_stream(std::ostream& os, const LoadGenConfig& config,
                          WireFormat format) {
  StreamWriter writer(format, os);
  const std::int64_t events =
      generate_events(config, [&](const ServeEvent& event) {
        writer.write(event);
        return static_cast<bool>(os);
      });
  writer.flush();
  return events;
}

}  // namespace

std::int64_t write_event_stream(std::ostream& os,
                                const LoadGenConfig& config) {
  return write_stream(os, config, WireFormat::kJsonl);
}

std::int64_t write_wire_stream(std::ostream& os,
                               const LoadGenConfig& config) {
  return write_stream(os, config, WireFormat::kBinary);
}

PaceReport run_paced_load(
    const LoadGenConfig& config, const PaceConfig& pace,
    const std::function<bool(const ServeEvent&)>& submit) {
  if (!(pace.target_eps > 0.0)) {
    throw InvalidArgumentError("paced load requires target_eps > 0");
  }
  obs::MonotonicClock& clock =
      pace.clock != nullptr ? *pace.clock : obs::steady_clock();
  const auto sleep_ns =
      pace.sleep_ns ? pace.sleep_ns : [](std::uint64_t ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
      };
  const double gap_ns = 1e9 / pace.target_eps;

  PaceReport report;
  const std::uint64_t t0 = clock.now_ns();
  generate_events(config, [&](const ServeEvent& event) {
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(gap_ns *
                                        static_cast<double>(report.offered));
    std::uint64_t now = clock.now_ns();
    if (now < deadline) {
      sleep_ns(deadline - now);
      now = clock.now_ns();
    }
    // The schedule lag travels with the event (client_lag_ns) so the
    // trace plane can draw client-side lateness as a distinct ingest
    // span; a lag is a duration, so it is valid across clock domains
    // (the pace clock and the planes' uptime clocks differ in epoch).
    ServeEvent stamped = event;
    if (now > deadline) {
      const std::uint64_t lag = now - deadline;
      report.max_lag_ns = std::max(report.max_lag_ns, lag);
      if (static_cast<double>(lag) > gap_ns) ++report.late_events;
      stamped.client_lag_ns = lag;
    }
    ++report.offered;
    if (submit(stamped)) {
      ++report.accepted;
    } else {
      ++report.shed;
    }
    return true;
  });
  report.duration_ns = clock.now_ns() - t0;
  return report;
}

}  // namespace mcs::serve
