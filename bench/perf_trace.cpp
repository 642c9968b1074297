// Trace-plane benches: what does turning per-round causal tracing on
// (span timelines + tail sampler + phase sketches) cost the serving hot
// path, and what does one raw span record cost?
//
// The headline number is BM_ServeTraceOverhead's overhead_pct counter:
// the paired events/sec loss of trace-on vs trace-off on the same canned
// stream, the figure the acceptance budget (< 5%) tracks. Durations and
// the derived eps/overhead counters are wall-clock and land in
// bench-diff's report-only section; the deterministic gate sees only the
// registry work counters.
//
// Counter-pass determinism: block admission only, and the trace plane by
// contract writes zero registry counters, so the trace-on counter set is
// bit-identical to trace-off, run to run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <vector>

#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/trace_plane.hpp"
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

/// One engine run over `events`; attaches the trace plane when non-null.
void run_engine(const std::vector<serve::ServeEvent>& events, int shards,
                serve::TracePlane* trace) {
  serve::ServeConfig config;
  config.shards = shards;
  config.admission = serve::ServeConfig::Admission::kBlock;
  config.trace = trace;
  serve::ServeEngine engine(config);
  for (const serve::ServeEvent& event : events) engine.submit(event);
  engine.drain();
  benchmark::DoNotOptimize(engine.stats());
}

/// Baseline: the engine with the trace plane detached.
void BM_ServeTraceOff(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  for (auto _ : state) {
    run_engine(events, static_cast<int>(state.range(0)), nullptr);
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeTraceOff)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The same stream with every round traced and retained (threshold 1 ns),
/// the worst case for the plane: full span timelines plus pinned rings.
void BM_ServeTraceOn(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  std::int64_t retained = 0;
  for (auto _ : state) {
    serve::TracePlaneConfig config;
    config.slow_threshold_ns = 1;
    serve::TracePlane trace(config);
    run_engine(events, static_cast<int>(state.range(0)), &trace);
    retained = trace.summary().retained;
  }
  state.counters["events"] = static_cast<double>(events.size());
  state.counters["retained"] = static_cast<double>(retained);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServeTraceOn)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Paired on/off runs inside each iteration: both legs see the same
/// machine state (cache, frequency), so the eps ratio isolates the
/// plane's cost. overhead_pct is the acceptance-tracked number.
void BM_ServeTraceOverhead(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  const int shards = static_cast<int>(state.range(0));
  std::chrono::nanoseconds off_ns{0};
  std::chrono::nanoseconds on_ns{0};
  for (auto _ : state) {
    const auto off_start = std::chrono::steady_clock::now();
    run_engine(events, shards, nullptr);
    off_ns += std::chrono::steady_clock::now() - off_start;

    serve::TracePlaneConfig config;
    config.slow_threshold_ns = 1;
    serve::TracePlane trace(config);
    const auto on_start = std::chrono::steady_clock::now();
    run_engine(events, shards, &trace);
    on_ns += std::chrono::steady_clock::now() - on_start;
    benchmark::DoNotOptimize(trace.summary().retained);
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
BENCHMARK(BM_ServeTraceOverhead)->Arg(1)->Arg(8)->UseRealTime();

/// Raw span-record cost: one open round absorbing slot ticks with
/// synthetic stamps -- the per-event price of the timeline itself, no
/// engine around it. The trace is resealed periodically so the span
/// vector stays at working size instead of saturating the cap.
void BM_TraceSpanRecord(benchmark::State& state) {
  serve::TracePlaneConfig config;
  config.slow_threshold_ns = 1'000'000'000;  // keep the ring cold
  serve::TracePlane plane(config);
  plane.attach(1);
  std::int64_t round = 0;
  std::int32_t slot = 0;
  std::uint64_t t = 0;
  plane.on_round_open(0, round, t, t, 0);
  for (auto _ : state) {
    plane.on_slot_tick(0, round, slot, t, t + 10);
    t += 20;
    if (++slot == 64) {
      slot = 0;
      plane.on_round_complete(0, round, t, t, t, 0);
      ++round;
      plane.on_round_open(0, round, t, t, 0);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanRecord);

/// Post-drain export cost of a fully retained run: JSONL rendering of the
/// rings, the summary, and the exemplar table.
void BM_TraceStreamWrite(benchmark::State& state) {
  const std::vector<serve::ServeEvent> events = canned_events(16);
  serve::TracePlaneConfig config;
  config.slow_threshold_ns = 1;
  serve::TracePlane trace(config);
  run_engine(events, 2, &trace);
  for (auto _ : state) {
    std::ostringstream os;
    serve::write_trace_stream(os, trace);
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceStreamWrite);

}  // namespace

int main(int argc, char** argv) {
  return mcs_bench::telemetry_main(argc, argv, "perf_trace");
}
