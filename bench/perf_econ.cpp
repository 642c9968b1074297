// Economic-plane benches: what does turning the econ telemetry plane on
// (capture-mode rounds + per-round invariants + reference pricing + the
// sampled deep sentinel) cost the serving hot path?
//
// The headline number is BM_ServeEconOverhead's overhead_pct counter: the
// paired events/sec loss of econ-on vs econ-off on the same canned stream,
// the figure the acceptance budget (< 5%) tracks. Durations and the derived
// eps/overhead counters are wall-clock and land in bench-diff's report-only
// section; the deterministic gate sees only the registry work counters.
//
// Counter-pass determinism: block admission only (see perf_serve_latency),
// and the loadgen traffic is truthful, so the sentinel's sole registry
// counter -- econ.violations -- stays at zero and the econ-on counter set
// is bit-identical to econ-off, run to run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/wallclock.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "telemetry_main.hpp"

namespace {

using namespace mcs;

std::vector<serve::ServeEvent> canned_events(int rounds) {
  serve::LoadGenConfig load;
  load.rounds = rounds;
  load.seed = 7;
  std::vector<serve::ServeEvent> events;
  serve::generate_events(load, [&](const serve::ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

/// One engine run over `events`; attaches the econ plane when non-null.
void run_engine(const std::vector<serve::ServeEvent>& events, int shards,
                serve::EconTelemetry* econ) {
  serve::ServeConfig config;
  config.shards = shards;
  config.admission = serve::ServeConfig::Admission::kBlock;
  config.econ = econ;
  serve::ServeEngine engine(config);
  serve::ShardBatcher batcher(engine);
  for (const serve::ServeEvent& event : events) batcher.add(event);
  batcher.flush();
  engine.drain();
  benchmark::DoNotOptimize(engine.stats());
}

/// Baseline: the engine with the econ plane detached (capture mode off).
void BM_ServeEconOff(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  for (auto _ : state) {
    run_engine(events, static_cast<int>(state.range(0)), nullptr);
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEconOff)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The same stream with every round audited and the default 1-in-16 deep
/// sentinel sampling; the violation counter of the last iteration must be
/// zero (truthful traffic).
void BM_ServeEconOn(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  std::int64_t probe_rounds = 0;
  std::int64_t violations = 0;
  for (auto _ : state) {
    serve::EconTelemetry econ;
    run_engine(events, static_cast<int>(state.range(0)), &econ);
    const serve::EconSnapshot snapshot = econ.take_snapshot();
    probe_rounds = snapshot.cumulative.probe_rounds;
    violations = snapshot.cumulative.violations;
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["probe_rounds"] = static_cast<double>(probe_rounds);
  state.counters["violations"] = static_cast<double>(violations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeEconOn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Paired on/off runs inside each iteration: both legs see the same
/// machine state (cache, frequency), so the eps ratio isolates the plane's
/// cost. overhead_pct is the acceptance-tracked number.
void BM_ServeEconOverhead(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  const int shards = static_cast<int>(state.range(0));
  std::chrono::nanoseconds off_ns{0};
  std::chrono::nanoseconds on_ns{0};
  for (auto _ : state) {
    const auto off_start = std::chrono::steady_clock::now();
    run_engine(events, shards, nullptr);
    off_ns += std::chrono::steady_clock::now() - off_start;

    serve::EconTelemetry econ;
    const auto on_start = std::chrono::steady_clock::now();
    run_engine(events, shards, &econ);
    on_ns += std::chrono::steady_clock::now() - on_start;
    benchmark::DoNotOptimize(econ.violations());
  }
  const double total_events =
      static_cast<double>(state.iterations()) *
      static_cast<double>(events.size());
  const double eps_off =
      off_ns.count() > 0
          ? total_events / (static_cast<double>(off_ns.count()) / 1e9)
          : 0.0;
  const double eps_on =
      on_ns.count() > 0
          ? total_events / (static_cast<double>(on_ns.count()) / 1e9)
          : 0.0;
  state.counters["eps_off"] = eps_off;
  state.counters["eps_on"] = eps_on;
  state.counters["overhead_pct"] =
      eps_off > 0.0 ? (1.0 - eps_on / eps_off) * 100.0 : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()) * 2);
}
BENCHMARK(BM_ServeEconOverhead)->Arg(1)->Arg(8)->UseRealTime();

/// The per-round sampling decision -- the only sentinel cost paid by
/// rounds that are *not* deep-probed beyond the cheap invariants.
void BM_EconProbeSampled(benchmark::State& state) {
  std::int64_t round = 0;
  std::int64_t sampled = 0;
  for (auto _ : state) {
    sampled += serve::econ_probe_sampled(round++, 16, 0) ? 1 : 0;
    benchmark::DoNotOptimize(sampled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EconProbeSampled);

/// Snapshot roll + JSONL serialization -- the publisher's periodic cost,
/// off the hot path but pinned so cadence tuning has a number.
void BM_EconSnapshotWrite(benchmark::State& state) {
  obs::FakeClock clock;
  serve::EconTelemetryConfig config;
  config.clock = &clock;
  serve::EconTelemetry econ(config);
  econ.attach(4);
  for (auto _ : state) {
    clock.advance_ms(100);
    std::ostringstream os;
    serve::write_econ_snapshot(os, econ.take_snapshot());
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EconSnapshotWrite);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_econ");
}
