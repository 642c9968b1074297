// Live-telemetry-plane benches: what does turning the wall-clock plane on
// cost the serving hot path, and what latency does the engine actually
// deliver under load?
//
// Two kinds of numbers come out:
//   * benchmark timings (ns/op) -- report-only, like every duration here,
//   * latency quantiles from the live plane (queue_wait / round_close
//     p50/p99), exported as state counters; these are wall-clock
//     measurements and land in the report-only section of bench-diff.
//
// Counter-pass determinism: block admission only. A kReject engine sheds
// timing-dependently, which would make the serve.events.* counters drift
// run to run and trip the exact gate -- so shedding stays out of benches.
#include <benchmark/benchmark.h>

#include <vector>

#include "obs/latency_sketch.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/telemetry.hpp"
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

/// End-to-end engine run with the live plane recording every event; the
/// cumulative sketches of the last iteration feed the quantile counters.
void BM_ServeLiveLatency(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  obs::LatencySketchSnapshot queue_wait;
  obs::LatencySketchSnapshot round_latency;
  for (auto _ : state) {
    serve::LiveTelemetry live;
    serve::ServeConfig config;
    config.shards = static_cast<int>(state.range(0));
    config.admission = serve::ServeConfig::Admission::kBlock;
    config.live = &live;
    serve::ServeEngine engine(config);
    for (const serve::ServeEvent& event : events) engine.submit(event);
    engine.drain();
    benchmark::DoNotOptimize(engine.stats());
    const serve::LiveSummary summary = live.summary();
    queue_wait = summary.queue_wait;
    round_latency = summary.round_latency;
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["queue_wait_p50_us"] = queue_wait.quantile_us(0.5);
  state.counters["queue_wait_p99_us"] = queue_wait.quantile_us(0.99);
  state.counters["round_close_p50_us"] = round_latency.quantile_us(0.5);
  state.counters["round_close_p99_us"] = round_latency.quantile_us(0.99);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeLiveLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The raw hook cost: one sketch record per call, the engine's per-event
/// overhead when the live plane is attached.
void BM_LatencySketchRecord(benchmark::State& state) {
  obs::LatencySketch sketch;
  std::uint64_t value = 1;
  for (auto _ : state) {
    sketch.record_ns(value);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
    benchmark::DoNotOptimize(value);
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySketchRecord);

/// Snapshot + window roll + health classification -- the publisher's
/// periodic cost, off the hot path but worth pinning down.
void BM_ServeSnapshot(benchmark::State& state) {
  obs::FakeClock clock;
  serve::LiveTelemetryConfig live_config;
  live_config.clock = &clock;
  serve::LiveTelemetry live(live_config);
  live.attach(4, 1024);
  for (int shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 256; ++i) {
      live.on_submit(shard, 1, i % 7);
      live.on_process(shard, static_cast<std::uint64_t>(1000 + i), i % 5);
    }
    live.on_round_close(shard, 2'000'000);
  }
  for (auto _ : state) {
    clock.advance_ms(100);
    benchmark::DoNotOptimize(live.take_snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeSnapshot);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_serve_latency");
}
