// Computational-efficiency microbenches for the full mechanisms
// (Theorems 3 and 7): end-to-end run time of the offline VCG and online
// greedy mechanisms as the round scales.
#include <benchmark/benchmark.h>

#include "auction/offline_vcg.hpp"
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

void BM_OfflineVcg(benchmark::State& state) {
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  const auction::OfflineVcgMechanism mechanism;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(s, bids));
  }
  state.counters["phones"] = static_cast<double>(s.phone_count());
  state.counters["tasks"] = static_cast<double>(s.task_count());
}
BENCHMARK(BM_OfflineVcg)->Arg(10)->Arg(20)->Arg(40);

void BM_OnlineGreedy(benchmark::State& state) {
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
BENCHMARK(BM_OnlineGreedy)->Arg(10)->Arg(20)->Arg(40);

void BM_OnlineAllocationOnly(benchmark::State& state) {
  // Algorithm 1 without payments: what the platform runs per slot online.
  const model::Scenario s =
      scaled_scenario(static_cast<int>(state.range(0)), 7);
  const model::BidProfile bids = s.truthful_bids();
  for (auto _ : state) {
    benchmark::DoNotOptimize(auction::run_greedy_allocation(s, bids));
  }
}
BENCHMARK(BM_OnlineAllocationOnly)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_mechanisms");
}
