// Tests for the causal trace plane: tail-based retention (slow / econ /
// error), ring wraparound under a fake clock, golden mcs.trace.v1 JSONL,
// the plane-separation contract (trace-on never perturbs the
// deterministic counters), engine integration, the paced loadgen's
// client-lag stamping, and the trace-report digest.
#include "serve/trace_plane.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_report.hpp"
#include "common/error.hpp"
#include "obs/latency_sketch.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"
#include "obs/wallclock.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/telemetry.hpp"

namespace mcs::serve {
namespace {

LoadGenConfig small_load(std::int64_t rounds = 6) {
  LoadGenConfig load;
  load.rounds = rounds;
  load.seed = 2026;
  load.workload.num_slots = 12;
  return load;
}

std::vector<ServeEvent> events_of(const LoadGenConfig& load) {
  std::vector<ServeEvent> events;
  generate_events(load, [&](const ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

/// A small plane with a fixed 1 us slow threshold. Hooks take explicit
/// stamps, so hand-driven tests are deterministic without any clock.
TracePlaneConfig fixed_threshold_config() {
  TracePlaneConfig config;
  config.ring_capacity = 8;
  config.slow_threshold_ns = 1000;
  config.exemplar_threshold_ns = 1000;
  return config;
}

// ------------------------------------------------------- tail retention

TEST(TracePlane, TailSamplerRetainsSlowEconAndErrorRounds) {
  TracePlane plane(fixed_threshold_config());
  plane.attach(1);

  // Round 0: fast and clean -- folded into summaries, not retained.
  plane.on_round_open(0, 0, 100, 200, 0);
  plane.on_slot_tick(0, 0, 1, 250, 300);
  plane.on_round_complete(0, 0, 500, 600, 700, 0);
  // Round 1: slow (latency 1400 ns >= 1000 ns threshold).
  plane.on_round_open(0, 1, 1000, 1100, 0);
  plane.on_round_complete(0, 1, 2500, 2600, 2700, 0);
  // Round 2: fast but economically violating.
  plane.on_round_open(0, 2, 3000, 3100, 0);
  plane.on_round_complete(0, 2, 3300, 3400, 3500, 2);
  // Round 3: corrupted mid-flight by shedding.
  plane.on_round_open(0, 3, 4000, 4100, 0);
  plane.on_round_corrupted(0, 3, 4200);
  // Round 7: orphaned events (open was shed); duplicates collapse.
  plane.on_orphaned_event(0, 7, 5000);
  plane.on_orphaned_event(0, 7, 5100);
  plane.on_worker_exit(0, 6000);

  const TraceSummary summary = plane.summary();
  EXPECT_EQ(summary.rounds_traced, 5);
  EXPECT_EQ(summary.rounds_completed, 3);
  EXPECT_EQ(summary.retained, 4);
  EXPECT_EQ(summary.retained_slow, 1);
  EXPECT_EQ(summary.retained_econ, 1);
  EXPECT_EQ(summary.retained_error, 2);
  EXPECT_EQ(summary.dropped, 1);
  EXPECT_EQ(summary.retained_evicted, 0);
  EXPECT_EQ(summary.slow_threshold_ns, 1000u);

  const std::vector<obs::RoundTrace> retained = plane.retained();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_EQ(retained[0].round, 1);
  EXPECT_EQ(retained[0].status, obs::TraceStatus::kCompleted);
  EXPECT_EQ(retained[0].retained, obs::retain::kSlow);
  EXPECT_EQ(retained[0].latency_ns, 1400u);
  EXPECT_EQ(retained[1].round, 2);
  EXPECT_EQ(retained[1].retained, obs::retain::kEconViolation);
  EXPECT_EQ(retained[1].violations, 2);
  EXPECT_EQ(retained[2].round, 3);
  EXPECT_EQ(retained[2].status, obs::TraceStatus::kCorrupted);
  EXPECT_EQ(retained[2].retained, obs::retain::kError);
  EXPECT_EQ(retained[3].round, 7);
  EXPECT_EQ(retained[3].status, obs::TraceStatus::kOrphaned);
  EXPECT_EQ(retained[3].retained, obs::retain::kError);

  // Completed retained traces end in the terminal round_close marker and
  // their spans are chronologically ordered.
  for (const obs::RoundTrace& trace : retained) {
    if (trace.status != obs::TraceStatus::kCompleted) continue;
    ASSERT_FALSE(trace.spans.empty());
    EXPECT_EQ(trace.spans.back().phase, obs::TracePhase::kRoundClose);
    for (std::size_t i = 0; i + 1 < trace.spans.size(); ++i) {
      EXPECT_LE(trace.spans[i].start_ns, trace.spans[i + 1].start_ns);
    }
  }
}

TEST(TracePlane, AbandonedOpenRoundsAreSealedAtWorkerExit) {
  TracePlane plane(fixed_threshold_config());
  plane.attach(1);
  plane.on_round_open(0, 4, 100, 200, 0);
  plane.on_worker_exit(0, 900);

  const std::vector<obs::RoundTrace> retained = plane.retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].status, obs::TraceStatus::kAbandoned);
  EXPECT_EQ(retained[0].latency_ns, 700u);
  EXPECT_EQ(plane.summary().retained_error, 1);
  EXPECT_EQ(plane.summary().rounds_completed, 0);
}

TEST(TracePlane, AutoThresholdStaysQuietUntilWarmedUp) {
  TracePlaneConfig config;
  config.slow_threshold_ns = 0;  // auto
  TracePlane plane(config);
  plane.attach(1);

  // 31 uniform closes: below the warm-up floor, nothing qualifies as slow.
  std::uint64_t t = 0;
  for (std::int64_t round = 0; round < 31; ++round) {
    plane.on_round_open(0, round, t, t, 0);
    plane.on_round_complete(0, round, t + 1000, t + 1000, t + 1000, 0);
    t += 2000;
  }
  EXPECT_EQ(plane.summary().retained_slow, 0);
  EXPECT_EQ(plane.summary().slow_threshold_ns, ~0ULL) << "not warmed up";

  // Keep closing until the refresh fires with >= 32 samples banked, then
  // a 100x outlier must be caught by the rolling p99.
  for (std::int64_t round = 31; round < 48; ++round) {
    plane.on_round_open(0, round, t, t, 0);
    plane.on_round_complete(0, round, t + 1000, t + 1000, t + 1000, 0);
    t += 2000;
  }
  EXPECT_NE(plane.summary().slow_threshold_ns, ~0ULL);
  // Uniform baseline latencies make the rolling p99 equal the common
  // value, so baseline rounds may legitimately qualify now; the property
  // under test is that a 100x outlier is always caught from here on.
  const std::int64_t slow_before = plane.summary().retained_slow;
  plane.on_round_open(0, 100, t, t, 0);
  plane.on_round_complete(0, 100, t + 100000, t + 100000, t + 100000, 0);
  EXPECT_EQ(plane.summary().retained_slow, slow_before + 1);
  bool outlier_retained = false;
  for (const obs::RoundTrace& trace : plane.retained()) {
    if (trace.round == 100) {
      outlier_retained = true;
      EXPECT_EQ(trace.retained, obs::retain::kSlow);
    }
  }
  EXPECT_TRUE(outlier_retained);
}

// -------------------------------------------------------- ring wraparound

TEST(TracePlane, RingWraparoundKeepsTailSampledSetAndEvictsHealthyFirst) {
  // More rounds than ring capacity: the retained set (slow + violating)
  // survives in full, healthy context traces are the eviction fodder.
  TracePlaneConfig config = fixed_threshold_config();
  config.ring_capacity = 3;
  TracePlane plane(config);
  plane.attach(1);

  std::uint64_t t = 0;
  for (std::int64_t round = 0; round < 10; ++round) {
    plane.on_round_open(0, round, t, t, 0);
    const bool slow = round == 2;        // latency 5000 >= 1000
    const bool violating = round == 5;   // sentinel trips
    const std::uint64_t close = t + (slow ? 5000 : 100);
    plane.on_round_complete(0, round, close, close, close, violating ? 1 : 0);
    t = close + 100;
  }
  plane.on_worker_exit(0, t);

  const TraceSummary summary = plane.summary();
  EXPECT_EQ(summary.rounds_traced, 10);
  EXPECT_EQ(summary.retained, 2);
  EXPECT_EQ(summary.dropped, 8);
  EXPECT_EQ(summary.retained_evicted, 0)
      << "healthy rounds absorbed every eviction";

  const std::vector<obs::RoundTrace> retained = plane.retained();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0].round, 2);
  EXPECT_EQ(retained[0].retained, obs::retain::kSlow);
  EXPECT_EQ(retained[1].round, 5);
  EXPECT_EQ(retained[1].retained, obs::retain::kEconViolation);

  // Overflowing the ring with retained traces is lossy but accounted.
  for (std::int64_t round = 20; round < 24; ++round) {
    plane.on_round_open(0, round, t, t, 0);
    plane.on_round_complete(0, round, t + 5000, t + 5000, t + 5000, 0);
    t += 6000;
  }
  EXPECT_EQ(plane.summary().retained, 6);
  EXPECT_EQ(plane.summary().retained_evicted, 3)
      << "capacity 3 cannot hold 6 pinned traces";
  EXPECT_EQ(plane.retained().size(), 3u);
}

// ----------------------------------------------------------- golden JSONL

TEST(TracePlane, GoldenJsonlStreamUnderFakeClock) {
  TracePlaneConfig config;
  config.ring_capacity = 4;
  config.max_spans = 8;
  config.slow_threshold_ns = 1000;
  config.exemplar_threshold_ns = 1000;
  TracePlane plane(config);
  plane.attach(1);

  plane.on_round_open(0, 0, 100, 200, 50);
  plane.on_slot_tick(0, 0, 1, 200, 300);
  plane.on_round_complete(0, 0, 1400, 1500, 1600, 1);

  std::ostringstream os;
  write_trace_stream(os, plane);
  const std::uint64_t le = obs::sketch_detail::bucket_upper_edge(
      obs::sketch_detail::bucket_of(1200));
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"mcs.trace.v1\",\"shards\":1,\"ring_capacity\":4,"
      "\"max_spans\":8,\"slow_threshold_ns\":1000}\n"
      "{\"type\":\"trace\",\"trace_id\":\"e220a8397b1dcdaf\",\"round\":0,"
      "\"shard\":0,\"status\":\"completed\","
      "\"retained\":[\"slow\",\"econ_violation\"],\"violations\":1,"
      "\"open_ns\":200,\"close_ns\":1600,\"latency_ns\":1200,"
      "\"spans_dropped\":0,\"spans\":["
      "{\"phase\":\"ingest\",\"start_ns\":50,\"end_ns\":100},"
      "{\"phase\":\"queue_wait\",\"start_ns\":100,\"end_ns\":200},"
      "{\"phase\":\"slot_tick\",\"slot\":1,\"start_ns\":200,\"end_ns\":300},"
      "{\"phase\":\"payment\",\"start_ns\":1400,\"end_ns\":1500},"
      "{\"phase\":\"audit\",\"start_ns\":1500,\"end_ns\":1600},"
      "{\"phase\":\"round_close\",\"start_ns\":1600,\"end_ns\":1600}]}\n"
      "{\"type\":\"summary\",\"rounds\":1,\"completed\":1,\"retained\":1,"
      "\"retained_slow\":1,\"retained_econ\":1,\"retained_error\":0,"
      "\"dropped\":0,\"retained_evicted\":0,\"spans_truncated\":0,"
      "\"slow_threshold_ns\":1000,\"phases\":{"
      "\"ingest\":{\"count\":0,\"p50_ns\":null,\"p99_ns\":null,\"max_ns\":0},"
      "\"queue_wait\":{\"count\":0,\"p50_ns\":null,\"p99_ns\":null,"
      "\"max_ns\":0},"
      "\"slot_tick\":{\"count\":1,\"p50_ns\":100,\"p99_ns\":100,"
      "\"max_ns\":100},"
      "\"payment\":{\"count\":1,\"p50_ns\":100,\"p99_ns\":100,\"max_ns\":100},"
      "\"audit\":{\"count\":1,\"p50_ns\":100,\"p99_ns\":100,\"max_ns\":100},"
      "\"round_close\":{\"count\":1,\"p50_ns\":1200,\"p99_ns\":1200,"
      "\"max_ns\":1200}}}\n"
      "{\"type\":\"exemplars\",\"threshold_ns\":1000,\"entries\":["
      "{\"le_ns\":" +
          std::to_string(le) +
          ",\"latency_ns\":1200,\"trace_id\":\"e220a8397b1dcdaf\","
          "\"round\":0}]}\n");
}

// ---------------------------------------------- plane-separation contract

std::map<std::string, std::int64_t> counters_for(
    const std::vector<ServeEvent>& events, int shards, bool with_trace) {
  obs::MetricsRegistry registry;
  TracePlaneConfig trace_config;
  trace_config.slow_threshold_ns = 1;  // retain everything
  TracePlane trace(trace_config);
  {
    const obs::ScopedRegistry guard(&registry);
    ServeConfig config;
    config.shards = shards;
    if (with_trace) config.trace = &trace;
    ServeEngine engine(config);
    for (const ServeEvent& event : events) engine.submit(event);
    engine.drain();
  }
  return registry.snapshot().counters;
}

TEST(TracePlane, TracingNeverPerturbsDeterministicCounters) {
  // The acceptance contract: identical merged counters with the trace
  // plane off and on, for 1 and 8 shards.
  const std::vector<ServeEvent> events = events_of(small_load());
  const std::map<std::string, std::int64_t> baseline =
      counters_for(events, 1, false);
  ASSERT_GT(baseline.at("serve.events.round_open"), 0);
  EXPECT_EQ(baseline, counters_for(events, 1, true));
  EXPECT_EQ(baseline, counters_for(events, 8, false));
  EXPECT_EQ(baseline, counters_for(events, 8, true));
}

// ----------------------------------------------------- engine integration

TEST(TracePlane, EngineFeedsTheTracePlaneWhileServing) {
  const LoadGenConfig load = small_load(4);
  const std::vector<ServeEvent> events = events_of(load);
  TracePlaneConfig trace_config;
  trace_config.slow_threshold_ns = 1;  // every round qualifies as slow
  TracePlane trace(trace_config);
  ServeConfig config;
  config.shards = 2;
  config.trace = &trace;
  ServeEngine engine(config);
  for (const ServeEvent& event : events) engine.submit(event);
  engine.drain();

  const TraceSummary summary = trace.summary();
  EXPECT_EQ(summary.rounds_traced, load.rounds);
  EXPECT_EQ(summary.rounds_completed, load.rounds);
  EXPECT_EQ(summary.retained, load.rounds);
  EXPECT_EQ(summary.retained_slow, load.rounds);
  EXPECT_EQ(summary.dropped, 0);

  const std::vector<obs::RoundTrace> retained = trace.retained();
  ASSERT_EQ(retained.size(), static_cast<std::size_t>(load.rounds));
  for (const obs::RoundTrace& round_trace : retained) {
    EXPECT_EQ(round_trace.status, obs::TraceStatus::kCompleted);
    EXPECT_EQ(round_trace.trace_id, obs::trace_id_of(round_trace.round));
    ASSERT_GE(round_trace.spans.size(), 4u)
        << "ingest, queue, payment, round_close at minimum";
    EXPECT_EQ(round_trace.spans.back().phase, obs::TracePhase::kRoundClose);
    for (std::size_t i = 0; i + 1 < round_trace.spans.size(); ++i) {
      EXPECT_LE(round_trace.spans[i].start_ns,
                round_trace.spans[i + 1].start_ns)
          << "spans are chronologically ordered";
    }
  }

  // The JSONL stream round-trips through the analysis digest.
  std::ostringstream os;
  write_trace_stream(os, trace);
  std::istringstream in(os.str());
  const analysis::TraceStreamSummary digest =
      analysis::summarize_trace_stream(in);
  EXPECT_EQ(digest.shards, 2);
  EXPECT_EQ(digest.rounds, load.rounds);
  EXPECT_EQ(digest.traces.size(), static_cast<std::size_t>(load.rounds));
  EXPECT_EQ(digest.phases.at("round_close").count, load.rounds);
}

TEST(TracePlane, LiveAndTraceRoundLatencySketchesAgree) {
  // Both planes derive round latency from the same engine stamps, so the
  // trace plane's round_close sketch must match the live plane's
  // round_latency sketch sample for sample. The stream also walks every
  // kReject shed path with both planes attached: round 100 misses its
  // last slot_tick (corrupted at close), round 200 was never opened (two
  // orphaned events), round 300 is never closed (abandoned at drain).
  std::vector<ServeEvent> events = events_of(small_load(5));
  const std::int64_t clean_rounds = 5;
  events.push_back(round_open(100, 2, Money::from_units(10)));
  events.push_back(slot_tick(100, Slot{1}));
  events.push_back(round_close(100));
  events.push_back(task_arrived(200, Slot{1}, TaskId{0}));
  events.push_back(slot_tick(200, Slot{1}));
  events.push_back(round_open(300, 2, Money::from_units(10)));
  events.push_back(slot_tick(300, Slot{1}));

  for (const int shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << shards << " shard(s)");
    LiveTelemetry live;
    TracePlane trace;
    ServeConfig config;
    config.shards = shards;
    config.admission = ServeConfig::Admission::kReject;
    config.live = &live;
    config.trace = &trace;
    ServeEngine engine(config);
    for (const ServeEvent& event : events) {
      ASSERT_EQ(engine.submit(event), SubmitStatus::kAccepted);
    }
    engine.drain();

    const ServeStats& stats = engine.stats();
    EXPECT_EQ(stats.rounds_completed, clean_rounds);
    EXPECT_EQ(stats.rounds_corrupted, 1);
    EXPECT_EQ(stats.orphaned_events, 2);
    EXPECT_EQ(stats.rounds_abandoned, 1);

    const LiveSummary live_summary = live.summary();
    const TraceSummary trace_summary = trace.summary();
    EXPECT_EQ(live_summary.rounds_closed, stats.rounds_completed);
    EXPECT_EQ(trace_summary.rounds_completed, stats.rounds_completed);
    // Corrupted, orphaned and abandoned rounds each seal one error trace.
    EXPECT_EQ(trace_summary.retained_error, 3);
    EXPECT_EQ(trace_summary.rounds_traced,
              trace_summary.rounds_completed + trace_summary.retained_error);

    const obs::LatencySketchSnapshot& live_sketch = live_summary.round_latency;
    const obs::LatencySketchSnapshot& trace_sketch =
        trace_summary
            .phases[static_cast<std::size_t>(obs::TracePhase::kRoundClose)]
            .sketch;
    ASSERT_EQ(live_sketch.count, trace_sketch.count);
    EXPECT_EQ(live_sketch.counts, trace_sketch.counts);
    EXPECT_DOUBLE_EQ(live_sketch.quantile_ns(0.5),
                     trace_sketch.quantile_ns(0.5));
    EXPECT_DOUBLE_EQ(live_sketch.quantile_ns(0.99),
                     trace_sketch.quantile_ns(0.99));
  }
}

// ------------------------------------------------------ loadgen lag stamp

TEST(ServePacing, StampsClientLagOnLateEvents) {
  // A consumer that drags the fake clock makes every subsequent send late;
  // those events must carry their schedule lag so traces can show the
  // client-side ingest span.
  const LoadGenConfig load = small_load(1);
  obs::FakeClock clock;
  PaceConfig pace;
  pace.target_eps = 1000.0;
  pace.clock = &clock;
  pace.sleep_ns = [&clock](std::uint64_t ns) { clock.advance_ns(ns); };

  std::vector<ServeEvent> seen;
  run_paced_load(load, pace, [&](const ServeEvent& event) {
    seen.push_back(event);
    clock.advance_ns(2'500'000);  // 2.5 gaps per submit
    return true;
  });
  ASSERT_GT(seen.size(), 2u);
  EXPECT_EQ(seen.front().client_lag_ns, 0u) << "first send is on schedule";
  EXPECT_EQ(seen[1].client_lag_ns, 1'500'000u)
      << "one gap of 1 ms minus 2.5 ms burned";
  EXPECT_GT(seen.back().client_lag_ns, seen[1].client_lag_ns)
      << "lag keeps growing under a dragging consumer";
}

TEST(ServePacing, OnScheduleEventsCarryNoLag) {
  const LoadGenConfig load = small_load(1);
  obs::FakeClock clock;
  PaceConfig pace;
  pace.target_eps = 1000.0;
  pace.clock = &clock;
  pace.sleep_ns = [&clock](std::uint64_t ns) { clock.advance_ns(ns); };
  run_paced_load(load, pace, [&](const ServeEvent& event) {
    EXPECT_EQ(event.client_lag_ns, 0u);
    return true;
  });
}

// ------------------------------------------------------------ trace-report

TEST(TraceReport, DigestsAndRendersAPlaneStream) {
  TracePlane plane(fixed_threshold_config());
  plane.attach(1);
  plane.on_round_open(0, 0, 100, 200, 50);
  plane.on_slot_tick(0, 0, 1, 200, 300);
  plane.on_round_complete(0, 0, 1400, 1500, 1600, 1);
  plane.on_round_open(0, 1, 2000, 2100, 0);
  plane.on_round_complete(0, 1, 2200, 2300, 2400, 0);
  plane.on_worker_exit(0, 3000);

  std::ostringstream stream;
  write_trace_stream(stream, plane);
  std::istringstream in(stream.str());
  const analysis::TraceStreamSummary summary =
      analysis::summarize_trace_stream(in);
  EXPECT_EQ(summary.rounds, 2);
  EXPECT_EQ(summary.retained, 1);
  EXPECT_FALSE(summary.auto_threshold);
  EXPECT_EQ(summary.slow_threshold_ns, 1000);
  ASSERT_EQ(summary.traces.size(), 1u);
  EXPECT_EQ(summary.traces[0].round, 0);
  ASSERT_EQ(summary.exemplars.size(), 1u);
  EXPECT_EQ(summary.exemplars[0].latency_ns, 1200u);

  std::ostringstream report;
  analysis::render_trace_report(report, summary, 5);
  const std::string text = report.str();
  EXPECT_NE(text.find("mcs.trace.v1 -- 1 shard(s), 2 round(s) traced"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("slow threshold: 1.00 us (fixed)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("round_close"), std::string::npos) << text;
  EXPECT_NE(text.find("slowest retained rounds (top 1 of 1)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("trace e220a8397b1dcdaf"), std::string::npos) << text;
  EXPECT_NE(text.find("1 violation(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("slot 1"), std::string::npos) << text;
  EXPECT_NE(text.find("sketch exemplars"), std::string::npos) << text;
}

TEST(TraceReport, RejectsForeignStreams) {
  std::istringstream not_a_trace("{\"schema\":\"mcs.serve_stats.v1\"}\n");
  EXPECT_THROW(analysis::summarize_trace_stream(not_a_trace),
               InvalidArgumentError);
  std::istringstream empty("");
  EXPECT_THROW(analysis::summarize_trace_stream(empty), InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::serve
