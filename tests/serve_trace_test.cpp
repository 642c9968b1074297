// Tests for the causal trace plane: tail-based retention (slow / econ /
// error), ring wraparound under a fake clock, golden mcs.trace.v1 JSONL,
// the plane-separation contract (trace-on never perturbs the
// deterministic counters), engine integration, the paced loadgen's
// client-lag stamping, and the trace-report digest and its line cap.
#include "serve/trace_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_report.hpp"
#include "common/error.hpp"
#include "obs/latency_sketch.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"
#include "obs/wallclock.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/queue.hpp"
#include "serve/system_lane.hpp"
#include "serve/telemetry.hpp"
#include "support/alloc_counter.hpp"
#include "support/engine_feed.hpp"

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
/// stamps, so hand-driven tests are deterministic without any clock; a
/// round reaches the fixed 1 ms exemplar floor by its stamps alone.
TracePlaneConfig fixed_threshold_config() {
  TracePlaneConfig config;
  config.ring_capacity = 8;
  config.slow_threshold_ns = 1000;
  return config;
}

/// A hand-driven plane over one shard's system lane. complete() ends a
/// round the way ServeEngine::end_round does: the lane records the round's
/// latency (close begin minus open) before the plane's sampler reads it.
struct DrivenPlane {
  explicit DrivenPlane(TracePlaneConfig config) : plane(config) {
    plane.attach(lanes);
  }
  void complete(obs::RoundTrace trace, std::uint64_t close_begin_ns,
                std::uint64_t settled_ns, std::uint64_t done_ns,
                std::int64_t violations) {
    lanes->front().record_round(close_begin_ns - trace.open_ns);
    plane.on_round_complete(0, std::move(trace), close_begin_ns, settled_ns,
                            done_ns, violations);
  }

  std::shared_ptr<SystemLanes> lanes = std::make_shared<SystemLanes>(1);
  TracePlane plane;
};

// ------------------------------------------------------- tail retention

TEST(TracePlane, TailSamplerRetainsSlowEconAndErrorRounds) {
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;

  // Round 0: fast and clean -- folded into summaries, not retained.
  obs::RoundTrace round0 = plane.on_round_open(0, 0, 100, 200, 0);
  plane.on_slot_tick(0, round0, 1, 250, 300);
  driven.complete(std::move(round0), 500, 600, 700, 0);
  // Round 1: slow (latency 1400 ns >= 1000 ns threshold).
  driven.complete(plane.on_round_open(0, 1, 1000, 1100, 0), 2500, 2600,
                  2700, 0);
  // Round 2: fast but economically violating.
  driven.complete(plane.on_round_open(0, 2, 3000, 3100, 0), 3300, 3400,
                  3500, 2);
  // Round 3: corrupted mid-flight by shedding.
  plane.on_round_failed(0, plane.on_round_open(0, 3, 4000, 4100, 0),
                        obs::TraceStatus::kCorrupted, 4200);
  // Round 7: orphaned events (open was shed); duplicates collapse.
  plane.on_orphaned_event(0, 7, 5000);
  plane.on_orphaned_event(0, 7, 5100);

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
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;
  plane.on_round_failed(0, plane.on_round_open(0, 4, 100, 200, 0),
                        obs::TraceStatus::kAbandoned, 900);

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
  DrivenPlane driven(config);
  TracePlane& plane = driven.plane;

  // 31 uniform closes: below the warm-up floor, nothing qualifies as slow.
  std::uint64_t t = 0;
  for (std::int64_t round = 0; round < 31; ++round) {
    driven.complete(plane.on_round_open(0, round, t, t, 0), t + 1000,
                    t + 1000, t + 1000, 0);
    t += 2000;
  }
  EXPECT_EQ(plane.summary().retained_slow, 0);
  EXPECT_EQ(plane.summary().slow_threshold_ns, ~0ULL) << "not warmed up";

  // Keep closing until the refresh fires with >= 32 samples banked, then
  // a 100x outlier must be caught by the rolling p99.
  for (std::int64_t round = 31; round < 48; ++round) {
    driven.complete(plane.on_round_open(0, round, t, t, 0), t + 1000,
                    t + 1000, t + 1000, 0);
    t += 2000;
  }
  EXPECT_NE(plane.summary().slow_threshold_ns, ~0ULL);
  // Uniform baseline latencies make the rolling p99 equal the common
  // value, so baseline rounds may legitimately qualify now; the property
  // under test is that a 100x outlier is always caught from here on.
  const std::int64_t slow_before = plane.summary().retained_slow;
  driven.complete(plane.on_round_open(0, 100, t, t, 0), t + 100000,
                  t + 100000, t + 100000, 0);
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
  DrivenPlane driven(config);
  TracePlane& plane = driven.plane;

  std::uint64_t t = 0;
  for (std::int64_t round = 0; round < 10; ++round) {
    obs::RoundTrace trace = plane.on_round_open(0, round, t, t, 0);
    const bool slow = round == 2;        // latency 5000 >= 1000
    const bool violating = round == 5;   // sentinel trips
    const std::uint64_t close = t + (slow ? 5000 : 100);
    driven.complete(std::move(trace), close, close, close,
                    violating ? 1 : 0);
    t = close + 100;
  }

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
    driven.complete(plane.on_round_open(0, round, t, t, 0), t + 5000,
                    t + 5000, t + 5000, 0);
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
  config.slow_threshold_ns = 1000;
  DrivenPlane driven(config);
  TracePlane& plane = driven.plane;

  // Latency 1.2 ms: slow, and above the 1 ms exemplar floor.
  obs::RoundTrace trace = plane.on_round_open(0, 0, 100, 200, 50);
  plane.on_slot_tick(0, trace, 1, 200, 300);
  driven.complete(std::move(trace), 1'200'200, 1'200'300, 1'200'400, 1);

  std::ostringstream os;
  write_trace_stream(os, plane);
  const std::uint64_t le = obs::sketch_detail::bucket_upper_edge(
      obs::sketch_detail::bucket_of(1'200'000));
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"mcs.trace.v1\",\"shards\":1,\"ring_capacity\":4,"
      "\"max_spans\":96,\"slow_threshold_ns\":1000}\n"
      "{\"type\":\"trace\",\"trace_id\":\"e220a8397b1dcdaf\",\"round\":0,"
      "\"shard\":0,\"status\":\"completed\","
      "\"retained\":[\"slow\",\"econ_violation\"],\"violations\":1,"
      "\"open_ns\":200,\"close_ns\":1200400,\"latency_ns\":1200000,"
      "\"spans_dropped\":0,\"spans\":["
      "{\"phase\":\"ingest\",\"start_ns\":50,\"end_ns\":100},"
      "{\"phase\":\"queue_wait\",\"start_ns\":100,\"end_ns\":200},"
      "{\"phase\":\"slot_tick\",\"slot\":1,\"start_ns\":200,\"end_ns\":300},"
      "{\"phase\":\"payment\",\"start_ns\":1200200,\"end_ns\":1200300},"
      "{\"phase\":\"audit\",\"start_ns\":1200300,\"end_ns\":1200400},"
      "{\"phase\":\"round_close\",\"start_ns\":1200400,"
      "\"end_ns\":1200400}]}\n"
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
      "\"round_close\":{\"count\":1,\"p50_ns\":1200000,\"p99_ns\":1200000,"
      "\"max_ns\":1200000}}}\n"
      "{\"type\":\"exemplars\",\"threshold_ns\":1000000,\"entries\":["
      "{\"le_ns\":" +
          std::to_string(le) +
          ",\"latency_ns\":1200000,\"trace_id\":\"e220a8397b1dcdaf\","
          "\"round\":0}]}\n");
}

TEST(TracePlane, SpanCapTruncatesTimelinesAtNinetySixSpans) {
  // Ingest and queue spans at open, 100 slot ticks, then payment, audit
  // and the round_close marker: 105 appends, of which the first 96 are
  // stored and the other 9 counted.
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;
  obs::RoundTrace trace = plane.on_round_open(0, 0, 100, 200, 50);
  std::uint64_t t = 200;
  for (std::int32_t slot = 1; slot <= 100; ++slot, t += 10) {
    plane.on_slot_tick(0, trace, slot, t, t + 10);
  }
  driven.complete(std::move(trace), t, t + 10, t + 20, 1);

  const std::vector<obs::RoundTrace> retained = plane.retained();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].spans.size(), 96u);
  EXPECT_EQ(retained[0].spans_dropped, 9u);
  EXPECT_EQ(retained[0].spans.back().phase, obs::TracePhase::kSlotTick);
  EXPECT_EQ(retained[0].spans.back().slot, 94);
  EXPECT_EQ(plane.summary().spans_truncated, 9);
}

TEST(TracePlane, BatchHookFoldsQueueWaitAndIngestPerEvent) {
  // One lane record and one on_batch per acquired batch, as the engine's
  // worker makes them; the summary's queue_wait (the lane's) and ingest
  // (the plane's) phases must still hold one sample per event, with the
  // waits measured from each event's own enqueue stamp to the pickup.
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;
  ServeEvent lagged = slot_tick(0, Slot{1});
  lagged.client_lag_ns = 9;
  const std::vector<ServeEvent> tail = {slot_tick(0, Slot{1}),
                                        slot_tick(0, Slot{1})};
  const std::vector<std::uint64_t> tail_stamps = {10, 10};
  const std::vector<ServeEvent> head = {lagged};
  const std::vector<std::uint64_t> head_stamps = {13};
  const RingView batch{.events = {tail, head},
                       .stamps = {tail_stamps, head_stamps}};
  driven.lanes->front().record_batch(batch, 15);
  plane.on_batch(0, batch);

  const TraceSummary summary = plane.summary();
  const obs::LatencySketchSnapshot& wait =
      summary.phases[static_cast<std::size_t>(obs::TracePhase::kQueueWait)]
          .sketch;
  EXPECT_EQ(wait.count, 3u);
  EXPECT_EQ(wait.min_ns, 2u);
  EXPECT_EQ(wait.max_ns, 5u);
  EXPECT_DOUBLE_EQ(wait.sum_ns, 12.0);
  const obs::LatencySketchSnapshot& ingest =
      summary.phases[static_cast<std::size_t>(obs::TracePhase::kIngest)]
          .sketch;
  EXPECT_EQ(ingest.count, 3u);
  EXPECT_EQ(ingest.min_ns, 0u);
  EXPECT_EQ(ingest.max_ns, 9u);
}

// ---------------------------------------------- plane-separation contract

std::map<std::string, std::int64_t> counters_for(
    const std::vector<ServeEvent>& events, int shards, bool with_trace,
    bool with_live = false) {
  obs::MetricsRegistry registry;
  TracePlaneConfig trace_config;
  trace_config.slow_threshold_ns = 1;  // retain everything
  TracePlane trace(trace_config);
  LiveTelemetry live;
  {
    const obs::ScopedRegistry guard(&registry);
    ServeConfig config;
    config.shards = shards;
    if (with_trace) config.trace = &trace;
    if (with_live) config.live = &live;
    ServeEngine engine(config);
    test_support::feed(engine, events);
    engine.drain();
  }
  return registry.snapshot().counters;
}

TEST(TracePlane, TracingNeverPerturbsDeterministicCounters) {
  // The acceptance contract: identical merged counters with the trace
  // plane off and on -- and with both timed planes sharing their system
  // lanes -- for 1 and 8 shards.
  const std::vector<ServeEvent> events = events_of(small_load());
  const std::map<std::string, std::int64_t> baseline =
      counters_for(events, 1, false);
  ASSERT_GT(baseline.at("serve.events.round_open"), 0);
  EXPECT_EQ(baseline, counters_for(events, 1, true));
  EXPECT_EQ(baseline, counters_for(events, 1, true, /*with_live=*/true));
  EXPECT_EQ(baseline, counters_for(events, 8, false));
  EXPECT_EQ(baseline, counters_for(events, 8, true));
  EXPECT_EQ(baseline, counters_for(events, 8, true, /*with_live=*/true));
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
  test_support::feed(engine, events);
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

TEST(TracePlane, AuditSpanAppearsOnlyWithTheEconPlane) {
  // The audit span covers the econ plane's work after settlement; without
  // the plane a completed round has none, and its sketch stays empty.
  const LoadGenConfig load = small_load(4);
  const std::vector<ServeEvent> events = events_of(load);
  for (const bool with_econ : {false, true}) {
    SCOPED_TRACE(with_econ ? "econ on" : "econ off");
    TracePlaneConfig trace_config;
    trace_config.slow_threshold_ns = 1;  // every round is retained
    TracePlane trace(trace_config);
    EconTelemetry econ;
    ServeConfig config;
    config.shards = 2;
    config.trace = &trace;
    if (with_econ) config.econ = &econ;
    ServeEngine engine(config);
    test_support::feed(engine, events);
    engine.drain();

    const std::vector<obs::RoundTrace> retained = trace.retained();
    ASSERT_EQ(retained.size(), static_cast<std::size_t>(load.rounds));
    for (const obs::RoundTrace& round_trace : retained) {
      const bool has_audit = std::any_of(
          round_trace.spans.begin(), round_trace.spans.end(),
          [](const obs::RoundSpan& span) {
            return span.phase == obs::TracePhase::kAudit;
          });
      EXPECT_EQ(has_audit, with_econ) << "round " << round_trace.round;
    }
    const TraceSummary summary = trace.summary();
    const obs::LatencySketchSnapshot& audit =
        summary.phases[static_cast<std::size_t>(obs::TracePhase::kAudit)]
            .sketch;
    EXPECT_EQ(audit.count, with_econ ? load.rounds : 0);
  }
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
    ASSERT_EQ(test_support::feed(engine, events),
              static_cast<std::int64_t>(events.size()));
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

TEST(TracePlane, RoundCorruptedMidStreamIsTracedOnce) {
  // A duplicate bid corrupts round 1 under kReject; the round's later
  // events then find no open round. They must fold into the corrupted
  // trace instead of opening a second, orphaned one.
  std::vector<ServeEvent> events = events_of(small_load(3));
  const auto first_bid =
      std::find_if(events.begin(), events.end(), [](const ServeEvent& event) {
        return event.round == 1 && event.kind == ServeEventKind::kBidSubmitted;
      });
  ASSERT_NE(first_bid, events.end());
  const auto duplicate = first_bid + 1;
  const ServeEvent copy = *first_bid;
  ASSERT_TRUE(std::any_of(duplicate, events.end(), [](const ServeEvent& e) {
    return e.round == 1;
  })) << "the corrupted round must have events after the duplicate";
  events.insert(duplicate, copy);

  TracePlane trace;
  ServeConfig config;
  config.shards = 1;
  config.admission = ServeConfig::Admission::kReject;
  config.trace = &trace;
  ServeEngine engine(config);
  ASSERT_EQ(test_support::feed(engine, events),
            static_cast<std::int64_t>(events.size()));
  engine.drain();

  EXPECT_EQ(engine.stats().rounds_corrupted, 1);
  EXPECT_EQ(engine.stats().rounds_completed, 2);
  const TraceSummary summary = trace.summary();
  EXPECT_EQ(summary.retained_error, 1);
  std::vector<obs::RoundTrace> round_one;
  for (const obs::RoundTrace& round_trace : trace.retained()) {
    if (round_trace.round == 1) round_one.push_back(round_trace);
  }
  ASSERT_EQ(round_one.size(), 1u);
  EXPECT_EQ(round_one[0].status, obs::TraceStatus::kCorrupted);
}

TEST(TracePlane, OrphanStubIsSealedAtItsFirstEventWithZeroLatency) {
  // Round 200's open was shed: its events come first, then a healthy
  // stream keeps the worker busy. The stub has no spans, so it is sealed
  // at its first orphaned event -- it must not read the time to drain as
  // its latency.
  std::vector<ServeEvent> events = {task_arrived(200, Slot{1}, TaskId{0}),
                                    slot_tick(200, Slot{1})};
  const std::vector<ServeEvent> traffic = events_of(small_load(6));
  events.insert(events.end(), traffic.begin(), traffic.end());

  TracePlane trace;
  ServeConfig config;
  config.shards = 1;
  config.admission = ServeConfig::Admission::kReject;
  config.trace = &trace;
  ServeEngine engine(config);
  ASSERT_EQ(test_support::feed(engine, events),
            static_cast<std::int64_t>(events.size()));
  engine.drain();

  EXPECT_EQ(engine.stats().orphaned_events, 2);
  EXPECT_EQ(engine.stats().rounds_completed, 6);
  std::vector<obs::RoundTrace> orphans;
  for (const obs::RoundTrace& round_trace : trace.retained()) {
    if (round_trace.status == obs::TraceStatus::kOrphaned) {
      orphans.push_back(round_trace);
    }
  }
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].round, 200);
  EXPECT_EQ(orphans[0].retained, obs::retain::kError);
  EXPECT_TRUE(orphans[0].spans.empty());
  EXPECT_EQ(orphans[0].close_ns, orphans[0].open_ns);
  EXPECT_EQ(orphans[0].latency_ns, 0u);
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
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;
  // Round 0 takes 1.2 ms (slow, and an exemplar); round 1 takes 100 ns.
  obs::RoundTrace round0 = plane.on_round_open(0, 0, 100, 200, 50);
  plane.on_slot_tick(0, round0, 1, 200, 300);
  driven.complete(std::move(round0), 1'200'200, 1'200'300, 1'200'400, 1);
  driven.complete(plane.on_round_open(0, 1, 2'000'000, 2'000'100, 0),
                  2'000'200, 2'000'300, 2'000'400, 0);

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
  EXPECT_EQ(summary.exemplars[0].latency_ns, 1'200'000u);

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

TEST(TraceReport, TheWritersLongestLinesFitUnderTheReaderCap) {
  // Every line at its widest: an exemplar in every sketch bucket from the
  // exemplar floor up, with 19-digit round ids and latencies up to 2^64 - 1,
  // and a retained trace with kTraceMaxSpans spans at 10-digit slots and
  // 20-character stamps.
  DrivenPlane driven(fixed_threshold_config());
  TracePlane& plane = driven.plane;
  constexpr std::int64_t kRound =
      std::numeric_limits<std::int64_t>::max() -
      static_cast<std::int64_t>(obs::sketch_detail::kBucketCount);
  const std::size_t first =
      obs::sketch_detail::bucket_of(kTraceExemplarThresholdNs);
  for (std::size_t b = first; b < obs::sketch_detail::kBucketCount; ++b) {
    const std::uint64_t latency = obs::sketch_detail::bucket_upper_edge(b);
    driven.complete(
        plane.on_round_open(0, kRound + static_cast<std::int64_t>(b), 0, 0, 0),
        latency, latency, latency, 0);
  }
  constexpr std::uint64_t kStamp = std::uint64_t{1} << 63;
  obs::RoundTrace wide = plane.on_round_open(0, kRound, kStamp, kStamp, 0);
  for (std::int32_t k = 0; k <= static_cast<std::int32_t>(kTraceMaxSpans);
       ++k) {
    plane.on_slot_tick(0, wide, std::numeric_limits<std::int32_t>::max() - k,
                       kStamp + 1, kStamp + 2);
  }
  driven.complete(std::move(wide), kStamp + 3, kStamp + 4, kStamp + 5, 0);

  std::ostringstream stream;
  write_trace_stream(stream, plane);
  std::istringstream lines(stream.str());
  std::size_t longest = 0;
  for (std::string line; std::getline(lines, line);) {
    longest = std::max(longest, line.size());
  }
  ASSERT_EQ(plane.exemplars().snapshot().size(),
            obs::sketch_detail::kBucketCount - first);
  EXPECT_LE(longest, analysis::kMaxTraceLineBytes);
  std::cout << "longest mcs.trace.v1 line: " << longest << " of "
            << analysis::kMaxTraceLineBytes << " bytes\n";

  // Stamps and latencies past int64 are written saturated, so the reader
  // takes back everything the writer wrote.
  std::istringstream in(stream.str());
  analysis::TraceStreamSummary digest;
  ASSERT_NO_THROW(digest = analysis::summarize_trace_stream(in));
  EXPECT_EQ(digest.traces.size(), plane.retained().size());
}

TEST(TraceReport, ALineOneByteOverTheCapFailsWithBoundedHeap) {
  const std::string header =
      "{\"schema\":\"mcs.trace.v1\",\"shards\":1}\n";
  // A record of an unknown type padded to exactly the cap is read.
  std::string at_cap = "{\"type\":\"pad\",\"x\":\"";
  at_cap.resize(analysis::kMaxTraceLineBytes - 2, 'x');
  at_cap += "\"}";
  std::istringstream fits(header + at_cap + "\n");
  EXPECT_NO_THROW((void)analysis::summarize_trace_stream(fits));

  std::istringstream over(header +
                          std::string(analysis::kMaxTraceLineBytes + 1, 'x'));
  std::string error;
  const std::uint64_t before = test::heap_bytes();
  std::uint64_t heap = 0;
  try {
    (void)analysis::summarize_trace_stream(over);
  } catch (const InvalidArgumentError& e) {
    heap = test::heap_bytes() - before;
    error = e.what();
  }
  EXPECT_EQ(error, "trace-report: line 2: longer than " +
                       std::to_string(analysis::kMaxTraceLineBytes) +
                       " bytes");
  // One line buffer, reserved once; the overlong line is not copied.
  EXPECT_LT(heap, 2 * analysis::kMaxTraceLineBytes);
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
