// Repeated-round simulation (paper Section VI-A methodology).
//
// Each repetition draws an independent round from the workload model (the
// paper's auction "executed round by round"), runs every registered
// mechanism on the truthful bid profile, derives the round metrics, and
// accumulates them. Reproducible: repetition r uses the deterministic
// child stream fork(base_seed, r), so sweeps and reruns see identical
// workloads per (seed, r) regardless of which mechanisms run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "auction/mechanism.hpp"
#include "common/stats.hpp"
#include "model/workload.hpp"

namespace mcs::sim {

struct SimulationConfig {
  model::WorkloadConfig workload;
  int repetitions = 30;
  std::uint64_t base_seed = 42;
};

/// Aggregated metrics of one mechanism over all repetitions.
struct MechanismAggregate {
  std::string name;
  RunningStats social_welfare;
  RunningStats overpayment_ratio;
  RunningStats total_payment;
  RunningStats completion_rate;
  RunningStats platform_utility;
};

struct SimulationResult {
  std::vector<MechanismAggregate> mechanisms;
  RunningStats phones_per_round;
  RunningStats tasks_per_round;

  /// Aggregate for a mechanism by name; throws InvalidArgumentError when
  /// absent.
  [[nodiscard]] const MechanismAggregate& by_name(const std::string& name) const;
};

/// Runs the simulation. `mechanisms` are non-owning pointers; each must be
/// valid for the duration of the call. Repetitions record no decision
/// events, even with an obs::EventLog installed (30+ rounds of every
/// decision would drown the log).
[[nodiscard]] SimulationResult simulate(
    const SimulationConfig& config,
    const std::vector<const auction::Mechanism*>& mechanisms);

/// The mechanism pair every figure compares: online greedy and offline VCG,
/// in that order (matching the paper's plot legends).
struct StandardMechanisms {
  StandardMechanisms();
  [[nodiscard]] std::vector<const auction::Mechanism*> pointers() const;

  std::unique_ptr<auction::Mechanism> online;
  std::unique_ptr<auction::Mechanism> offline;
};

}  // namespace mcs::sim
