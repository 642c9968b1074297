#include "sim/simulator.hpp"

#include <optional>
#include <string>

#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcs::sim {

const MechanismAggregate& SimulationResult::by_name(
    const std::string& name) const {
  for (const MechanismAggregate& aggregate : mechanisms) {
    if (aggregate.name == name) return aggregate;
  }
  throw InvalidArgumentError("no aggregate for mechanism: " + name);
}

namespace {

void check_inputs(const SimulationConfig& config,
                  const std::vector<const auction::Mechanism*>& mechanisms) {
  MCS_EXPECTS(config.repetitions >= 1, "repetitions must be >= 1");
  MCS_EXPECTS(!mechanisms.empty(), "at least one mechanism required");
  config.workload.validate();
  for (const auction::Mechanism* mechanism : mechanisms) {
    MCS_EXPECTS(mechanism != nullptr, "null mechanism");
  }
}

SimulationResult make_result_shell(
    const std::vector<const auction::Mechanism*>& mechanisms) {
  SimulationResult result;
  result.mechanisms.reserve(mechanisms.size());
  for (const auction::Mechanism* mechanism : mechanisms) {
    MechanismAggregate aggregate;
    aggregate.name = mechanism->name();
    result.mechanisms.push_back(std::move(aggregate));
  }
  return result;
}

/// One repetition: generate the round from the deterministic per-rep
/// stream, run every mechanism, accumulate into `result`.
void run_repetition(const SimulationConfig& config,
                    const std::vector<const auction::Mechanism*>& mechanisms,
                    int rep, SimulationResult& result) {
  const obs::ScopedTimer rep_timer("sim.repetition_duration_us");
  obs::count("sim.repetitions");
  const obs::ScopedEventLog suppress_events(nullptr);
  // The shared (seed, rep) fork discipline of model::round_scenario keeps
  // repetition k reproducible and independent of execution order.
  const model::Scenario scenario =
      model::round_scenario(config.workload, config.base_seed, rep);
  const model::BidProfile bids = scenario.truthful_bids();
  result.phones_per_round.add(static_cast<double>(scenario.phone_count()));
  result.tasks_per_round.add(static_cast<double>(scenario.task_count()));

  for (std::size_t k = 0; k < mechanisms.size(); ++k) {
    auction::Outcome outcome;
    {
      // Per-mechanism totals; the names are only materialised when
      // telemetry is on, so the disabled path stays allocation-free.
      std::optional<obs::ScopedTimer> mech_timer;
      if (obs::current_registry() != nullptr) {
        const std::string prefix = "sim.mechanism." + mechanisms[k]->name();
        obs::count(prefix + ".runs");
        mech_timer.emplace(prefix + ".duration_us");
      }
      outcome = mechanisms[k]->run(scenario, bids);
    }
    const analysis::RoundMetrics metrics =
        analysis::compute_metrics(scenario, bids, outcome);
    MechanismAggregate& aggregate = result.mechanisms[k];
    aggregate.social_welfare.add(metrics.social_welfare.to_double());
    aggregate.overpayment_ratio.add(metrics.overpayment_ratio);
    aggregate.total_payment.add(metrics.total_payment.to_double());
    aggregate.completion_rate.add(metrics.completion_rate);
    aggregate.platform_utility.add(metrics.platform_utility.to_double());
  }
}

}  // namespace

SimulationResult simulate(
    const SimulationConfig& config,
    const std::vector<const auction::Mechanism*>& mechanisms) {
  check_inputs(config, mechanisms);
  const obs::TraceSpan span("sim.simulate");
  SimulationResult result = make_result_shell(mechanisms);
  for (int rep = 0; rep < config.repetitions; ++rep) {
    run_repetition(config, mechanisms, rep, result);
    MCS_LOG_DEBUG("simulate: repetition " << rep << " done");
  }
  return result;
}

StandardMechanisms::StandardMechanisms()
    : online(std::make_unique<auction::OnlineGreedyMechanism>()),
      offline(std::make_unique<auction::OfflineVcgMechanism>()) {}

std::vector<const auction::Mechanism*> StandardMechanisms::pointers() const {
  return {online.get(), offline.get()};
}

}  // namespace mcs::sim
