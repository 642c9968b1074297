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

#include <memory>
#include <vector>

#include "obs/latency_sketch.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/queue.hpp"
#include "serve/system_lane.hpp"
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
    serve::ShardBatcher batcher(engine);
    for (const serve::ServeEvent& event : events) batcher.add(event);
    batcher.flush();
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
BENCHMARK(BM_ServeLiveLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The raw sketch cost: one record per call. The engine pays it once per
/// stretch of equal queue waits in an acquired batch (BM_LiveBatchHook).
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

/// The worker's per-batch timed-plane cost: one system-lane record_batch
/// over a 64-event batch from `range(0)` pushes (so as many stretches of
/// equal enqueue stamps), items = events.
void BM_LiveBatchHook(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  const auto pushes = static_cast<std::size_t>(state.range(0));
  const std::vector<serve::ServeEvent> events(kBatch,
                                              serve::slot_tick(0, Slot{1}));
  std::vector<std::uint64_t> stamps;
  for (std::size_t i = 0; i < kBatch; ++i) {
    stamps.push_back(1000 + 100 * (i * pushes / kBatch));
  }
  const serve::RingView batch{.events = {events, {}},
                              .stamps = {stamps, {}}};
  serve::SystemLane lane;
  std::uint64_t pickup_ns = 1'000'000;
  for (auto _ : state) {
    lane.record_batch(batch, pickup_ns);
    pickup_ns += 64;
  }
  benchmark::DoNotOptimize(lane.queue_wait.snapshot());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_LiveBatchHook)->Arg(1)->Arg(4)->Arg(64);

/// Snapshot + window roll + health classification -- the publisher's
/// periodic cost, off the hot path but worth pinning down.
void BM_ServeSnapshot(benchmark::State& state) {
  obs::FakeClock clock;
  serve::LiveTelemetryConfig live_config;
  live_config.clock = &clock;
  serve::LiveTelemetry live(live_config);
  const auto lanes = std::make_shared<serve::SystemLanes>(4);
  live.attach(lanes, 1024);
  for (int shard = 0; shard < 4; ++shard) {
    serve::SystemLane& lane = (*lanes)[static_cast<std::size_t>(shard)];
    for (int i = 0; i < 256; ++i) {
      live.on_submit(shard, 1, i % 7);
      const serve::ServeEvent event = serve::slot_tick(0, Slot{1});
      const std::uint64_t stamp = 0;
      lane.record_batch(serve::RingView{.events = {{{&event, 1}, {}}},
                                        .stamps = {{{&stamp, 1}, {}}}},
                        static_cast<std::uint64_t>(1000 + i));
    }
    lane.record_round(2'000'000);
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
