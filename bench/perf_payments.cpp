// Algorithm-2 payment microbenches: the displacement walk, plus the
// shared-prefix bisection probes.
//
// The pinned counter pass (telemetry_main) makes the work counters the
// story: the walk runs Algorithm 1 once (auction.greedy.allocation_runs)
// and reads auction.settlement.slots_walked slot records -- one per slot
// of each winner's [t'_i, d~_i] -- where a full replay of Algorithm 2
// would re-run Algorithm 1 per winner.
#include <benchmark/benchmark.h>

#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/workload.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

model::Scenario scaled_scenario(int slots, std::uint64_t seed) {
  model::WorkloadConfig workload;
  workload.num_slots = slots;
  Rng rng(seed);
  return model::generate_scenario(workload, rng);
}

void BM_Payments_DisplacementWalk(benchmark::State& state) {
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  const auction::OnlineGreedyMechanism mechanism;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(s, bids));
  }
  state.counters["phones"] = static_cast<double>(s.phone_count());
  state.counters["tasks"] = static_cast<double>(s.task_count());
}
BENCHMARK(BM_Payments_DisplacementWalk)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_CriticalValue_SharedPrefixBisection(benchmark::State& state) {
  // Every bisection probe forks at the phone's arrival from the factual
  // slot pool, on the thread's restarted GreedyCore, instead of replaying
  // from slot 1. Each iteration also runs the factual allocation the
  // engine is built from, as a caller with no outcome at hand does.
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  const auction::OnlineGreedyConfig config;
  const auction::Outcome outcome =
      auction::OnlineGreedyMechanism(config).run(s, bids);
  const auto winners = outcome.allocation.winners();
  for (auto _ : state) {
    const auction::CounterfactualEngine engine(
        s, bids, config,
        auction::run_greedy_allocation(s, bids, config).allocation);
    for (const PhoneId winner : winners) {
      benchmark::DoNotOptimize(auction::greedy_critical_value(engine, winner));
    }
  }
  state.counters["winners"] = static_cast<double>(winners.size());
}
BENCHMARK(BM_CriticalValue_SharedPrefixBisection)->Arg(10)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_payments");
}
