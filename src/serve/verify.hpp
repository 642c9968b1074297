// Streaming/batch equivalence oracle.
//
// The serving engine must not change the mechanism, only its delivery:
// for every completed round, the streamed outcome has to reproduce the
// batch auction::OnlineGreedyMechanism outcome on the regenerated scenario
// byte for byte -- same task->phone allocation, same exact Money payment
// per phone. The platform tests pin it round by round on one RoundMachine;
// this is the engine-wide check (any shard count, loadgen or replayed
// rounds), and both the CLI (`serve --verify`) and the test suite run it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "auction/online_greedy.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"

namespace mcs::serve {

struct VerifyReport {
  std::int64_t rounds_checked{0};
  std::int64_t rounds_diverged{0};
  std::string first_diff;  ///< human-readable description of the first one

  [[nodiscard]] bool clean() const { return rounds_diverged == 0; }
};

/// Compares one streamed outcome against the batch mechanism on the given
/// scenario/bids. Returns an empty string when identical, else a
/// description of the first divergence.
[[nodiscard]] std::string diff_against_batch(
    const model::Scenario& scenario, const model::BidProfile& bids,
    const RoundOutcome& streamed, const auction::OnlineGreedyConfig& config);

/// Verifies every outcome of a loadgen-driven run: regenerates each
/// round's scenario from (config.seed, round) and batch-compares.
[[nodiscard]] VerifyReport verify_against_batch(
    const LoadGenConfig& config, const std::vector<RoundOutcome>& outcomes,
    const auction::OnlineGreedyConfig& greedy);

}  // namespace mcs::serve
