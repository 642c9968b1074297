// Computational-efficiency microbenches for the matching substrate
// (Theorem 3: the optimal winning-bids determination is polynomial).
//
// Benchmarks the Hungarian solve as a function of instance size, the
// incremental column-removal query against a full re-solve (the ablation
// behind DESIGN.md Section 5, item 2).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "matching/hungarian.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

matching::WeightMatrix random_graph(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  matching::WeightMatrix g(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.bernoulli(0.6)) {
        g.set(r, c, Money::from_units(rng.uniform_int(1, 100)));
      }
    }
  }
  return g;
}

void BM_HungarianSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const matching::WeightMatrix g = random_graph(n, 2 * n, 42);
  for (auto _ : state) {
    matching::MaxWeightMatcher matcher(g);
    benchmark::DoNotOptimize(matcher.total_weight());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HungarianSolve)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_VcgMarginal_Incremental(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const matching::WeightMatrix g = random_graph(n, 2 * n, 43);
  matching::MaxWeightMatcher matcher(g);
  matcher.solve();
  int col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.total_weight_without_column(col));
    col = (col + 1) % g.cols();
  }
}
BENCHMARK(BM_VcgMarginal_Incremental)->RangeMultiplier(2)->Range(8, 128);

void BM_VcgMarginal_FullResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const matching::WeightMatrix g = random_graph(n, 2 * n, 43);
  int col = 0;
  for (auto _ : state) {
    matching::MaxWeightMatcher fresh(g.without_column(col));
    benchmark::DoNotOptimize(fresh.total_weight());
    col = (col + 1) % g.cols();
  }
}
BENCHMARK(BM_VcgMarginal_FullResolve)->RangeMultiplier(2)->Range(8, 128);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_matching");
}
