// Strategic-agent arena benches: what does one (mechanism x policy mix)
// cell-round cost, and how does the full grid scale across worker threads?
//
// BM_ArenaCellRound prices the per-round unit of work (scenario draw +
// hash assignment + reports + mechanism run + metrics + deviation probes)
// for each headline mechanism; BM_ArenaGrid runs the whole
// 3-mechanism x 2-mix grid through run_arena at 1 and 4 workers. The
// thread counts change wall time only: the arena's determinism contract
// pins results and counters to the serial run, so the counter pass (see
// telemetry_main.hpp) records identical arena.rounds /
// arena.deviation_runs totals at every arg -- the deterministic baseline
// bench-diff gates on.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/flight.hpp"
#include "arena/arena.hpp"
#include "arena/match.hpp"
#include "arena/population.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

arena::MatchConfig bench_match() {
  arena::MatchConfig match;
  match.seed = 42;
  match.probes_per_policy = 4;
  match.workload.num_slots = 12;
  match.workload.phone_arrival_rate = 4.0;
  match.workload.task_arrival_rate = 2.0;
  // Reserve at the task value: the exactly-truthful greedy configuration
  // (see docs/arena.md), so probe outcomes -- and with them the probe
  // counters -- are pinned.
  match.greedy.reserve_price = match.workload.task_value;
  return match;
}

const std::vector<std::string>& bench_mechanisms() {
  static const std::vector<std::string> specs = {"online", "offline",
                                                 "second-price"};
  return specs;
}

/// One cell-round per iteration for mechanism arg 0 (index into
/// bench_mechanisms) under the shaded mix, cycling through rounds so the
/// adaptive timing pass sees the workload's natural variance.
void BM_ArenaCellRound(benchmark::State& state) {
  const arena::MatchConfig match = bench_match();
  const auto mechanism = analysis::make_mechanism(
      bench_mechanisms()[static_cast<std::size_t>(state.range(0))],
      match.greedy);
  const arena::PolicyMix mix =
      arena::PolicyMix::parse("shaded=truthful:3,shade(1.5):1");
  constexpr std::int64_t kRoundCycle = 16;
  std::int64_t round = 0;
  for (auto _ : state) {
    const arena::RoundCellStats stats =
        arena::evaluate_round(match, *mechanism, mix, round);
    benchmark::DoNotOptimize(stats.welfare_micros);
    round = (round + 1) % kRoundCycle;
  }
  state.SetLabel(mechanism->name());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaCellRound)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

/// The full grid: 3 mechanisms x 2 mixes x kRounds rounds plus the shared
/// VCG reference pass, at arg worker threads. Identical results at every
/// arg by the determinism contract; only wall time moves.
void BM_ArenaGrid(benchmark::State& state) {
  arena::ArenaConfig config;
  config.match = bench_match();
  config.rounds = 16;
  config.threads = static_cast<int>(state.range(0));
  config.mechanisms = bench_mechanisms();
  config.mixes = {"truthful", "shaded=truthful:3,shade(1.5):1"};
  for (auto _ : state) {
    const arena::ArenaResult result = arena::run_arena(config);
    benchmark::DoNotOptimize(result.cells.size());
  }
  state.counters["cells"] = 6.0;
  state.SetItemsProcessed(state.iterations() * config.rounds * 6);
}
BENCHMARK(BM_ArenaGrid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_arena");
}
