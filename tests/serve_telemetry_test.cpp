// Tests for the live serve telemetry plane: golden mcs.serve_stats.v1
// snapshots under a fake clock, monotone snapshot windows, Prometheus
// rendering, the open-loop pacer, and -- the plane-separation contract --
// proof that turning live recording on never perturbs the deterministic
// counter plane the bench gate compares bit for bit.
#include "serve/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/wallclock.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/queue.hpp"
#include "serve/system_lane.hpp"
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

/// Attaches `live` to one fresh system lane per shard, as the engine does,
/// and returns the lanes for the test to feed.
std::shared_ptr<SystemLanes> attach_lanes(LiveTelemetry& live, int shards,
                                          std::int64_t queue_capacity) {
  auto lanes = std::make_shared<SystemLanes>(static_cast<std::size_t>(shards));
  live.attach(lanes, queue_capacity);
  return lanes;
}

/// Records one acquired batch of `n` events in a shard's lane, all enqueued
/// at 0 and picked up `wait_ns` later -- what the engine's worker records
/// for a batch from a single push.
void process_batch(SystemLane& lane, std::uint64_t wait_ns,
                   std::size_t n = 1) {
  const std::vector<ServeEvent> events(n, slot_tick(0, Slot{1}));
  const std::vector<std::uint64_t> stamps(n, 0);
  lane.record_batch(RingView{.events = {events, {}}, .stamps = {stamps, {}}},
                    wait_ns);
}

// ------------------------------------------------------- golden snapshots

TEST(ServeTelemetry, GoldenSnapshotUnderFakeClock) {
  // Hand-driven hooks with ns values small enough to sit in the sketch's
  // exact range, so every quantile in the golden line is exact and the
  // whole JSONL line is reproducible byte for byte.
  obs::FakeClock clock;
  LiveTelemetryConfig config;
  config.clock = &clock;
  LiveTelemetry live(config);
  const auto lanes = attach_lanes(live, 1, 8);

  live.on_submit(0, 1, 1);
  live.on_submit(0, 1, 2);
  process_batch((*lanes)[0], 5, 2);
  (*lanes)[0].record_round(10);
  live.on_reject(0, 1);
  clock.advance_ms(1000);

  std::ostringstream os;
  write_serve_snapshot(os, live.take_snapshot());
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"mcs.serve_stats.v1\",\"window\":0,\"at_ms\":1000,"
      "\"span_ms\":1000,\"state\":\"shedding\",\"submitted\":2,"
      "\"processed\":2,\"rejected\":1,\"reject_rate\":0.333333333333,"
      "\"rounds_closed\":1,\"events_per_sec\":2,\"rounds_per_sec\":1,"
      "\"round_close_p50_us\":0.01,\"round_close_p95_us\":0.01,"
      "\"round_close_p99_us\":0.01,\"round_close_max_us\":0.01,"
      "\"queue_wait_p50_us\":0.005,\"queue_wait_p95_us\":0.005,"
      "\"queue_wait_p99_us\":0.005,\"queue_wait_max_us\":0.005,"
      "\"queue_depth\":0,\"queue_watermark\":2,\"shards\":[{\"shard\":0,"
      "\"state\":\"shedding\",\"processed\":2,\"rejected\":1,"
      "\"events_per_sec\":2,\"queue_depth\":0,\"queue_watermark\":2,"
      "\"round_close_p99_us\":0.01}]}\n");

  // A quiet second window: zero deltas, null quantiles, healthy again.
  clock.advance_ms(1000);
  std::ostringstream quiet;
  write_serve_snapshot(quiet, live.take_snapshot());
  EXPECT_EQ(
      quiet.str(),
      "{\"schema\":\"mcs.serve_stats.v1\",\"window\":1,\"at_ms\":2000,"
      "\"span_ms\":1000,\"state\":\"healthy\",\"submitted\":0,"
      "\"processed\":0,\"rejected\":0,\"reject_rate\":0,"
      "\"rounds_closed\":0,\"events_per_sec\":0,\"rounds_per_sec\":0,"
      "\"round_close_p50_us\":null,\"round_close_p95_us\":null,"
      "\"round_close_p99_us\":null,\"round_close_max_us\":null,"
      "\"queue_wait_p50_us\":null,\"queue_wait_p95_us\":null,"
      "\"queue_wait_p99_us\":null,\"queue_wait_max_us\":null,"
      "\"queue_depth\":0,\"queue_watermark\":0,\"shards\":[{\"shard\":0,"
      "\"state\":\"healthy\",\"processed\":0,\"rejected\":0,"
      "\"events_per_sec\":0,\"queue_depth\":0,\"queue_watermark\":0,"
      "\"round_close_p99_us\":null}]}\n");
}

TEST(ServeTelemetry, SnapshotWindowsAreMonotoneAndRatesDeterministic) {
  obs::FakeClock clock;
  LiveTelemetryConfig config;
  config.clock = &clock;
  LiveTelemetry live(config);
  const auto lanes = attach_lanes(live, 2, 16);

  for (std::int64_t expected = 0; expected < 5; ++expected) {
    live.on_submit(0, 1, 1);
    process_batch((*lanes)[0], 4);
    clock.advance_ms(500);
    const ServeSnapshot snapshot = live.take_snapshot();
    EXPECT_EQ(snapshot.window, expected);
    EXPECT_EQ(snapshot.total.processed, 1);
    EXPECT_DOUBLE_EQ(snapshot.total.events_per_sec, 2.0);
    ASSERT_EQ(snapshot.shards.size(), 2u);
    EXPECT_EQ(snapshot.shards[0].window.index, expected);
    EXPECT_EQ(snapshot.shards[1].window.processed, 0);
  }
}

TEST(ServeTelemetry, StalledShardDetectedUnderFakeClock) {
  obs::FakeClock clock;
  LiveTelemetryConfig config;
  config.clock = &clock;
  LiveTelemetry live(config);
  const auto lanes = attach_lanes(live, 1, 8);

  live.on_submit(0, 3, 3);  // backlog builds, nothing ever processed
  clock.advance_ms(1000);
  EXPECT_EQ(live.take_snapshot().state, obs::HealthState::kHealthy)
      << "one stalled window is within dwell";
  clock.advance_ms(1000);
  const ServeSnapshot snapshot = live.take_snapshot();
  EXPECT_EQ(snapshot.state, obs::HealthState::kStalled);
  EXPECT_EQ(snapshot.total.queue_depth, 3);
}

TEST(ServeTelemetry, SummaryAggregatesAcrossShards) {
  obs::FakeClock clock;
  LiveTelemetryConfig config;
  config.clock = &clock;
  LiveTelemetry live(config);
  const auto lanes = attach_lanes(live, 2, 8);

  live.on_submit(0, 1, 5);
  process_batch((*lanes)[0], 7);
  (*lanes)[0].record_round(9);
  live.on_submit(1, 1, 2);
  process_batch((*lanes)[1], 3);
  live.on_reject(1, 1);
  clock.advance_ms(2000);

  const LiveSummary summary = live.summary();
  EXPECT_EQ(summary.submitted, 2);
  EXPECT_EQ(summary.processed, 2);
  EXPECT_EQ(summary.rejected, 1);
  EXPECT_EQ(summary.rounds_closed, 1);
  EXPECT_EQ(summary.queue_high_watermark, 5);
  EXPECT_EQ(summary.queue_wait.count, 2u);
  EXPECT_EQ(summary.queue_wait.min_ns, 3u);
  EXPECT_EQ(summary.queue_wait.max_ns, 7u);
  EXPECT_DOUBLE_EQ(summary.events_per_sec(), 1.0);
}

// ------------------------------------------------------------- Prometheus

TEST(ServeTelemetry, PrometheusRenderingExposesLiveGauges) {
  obs::FakeClock clock;
  LiveTelemetryConfig config;
  config.clock = &clock;
  LiveTelemetry live(config);
  const auto lanes = attach_lanes(live, 2, 8);
  live.on_submit(0, 1, 1);
  process_batch((*lanes)[0], 5);
  clock.advance_ms(1000);

  std::ostringstream os;
  render_live_prometheus(os, live.take_snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("mcs_serve_live_state 0"), std::string::npos) << text;
  EXPECT_NE(text.find("mcs_serve_live_events_per_sec 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcs_serve_live_shard_0_queue_watermark 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mcs_serve_live_shard_1_state 0"), std::string::npos)
      << text;
  // Empty-window quantiles are NaN and must be skipped, not emitted.
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

// ----------------------------------------------- plane-separation contract

std::map<std::string, std::int64_t> counters_for(
    const std::vector<ServeEvent>& events, int shards, bool with_live) {
  obs::MetricsRegistry registry;
  LiveTelemetry live;
  {
    const obs::ScopedRegistry guard(&registry);
    ServeConfig config;
    config.shards = shards;
    if (with_live) config.live = &live;
    ServeEngine engine(config);

    std::ostringstream sink;
    std::unique_ptr<StatsPublisher> publisher;
    if (with_live) {
      // A live publisher racing the workers is exactly the production
      // topology; under TSan this doubles as the no-data-race proof.
      publisher = std::make_unique<StatsPublisher>(
          live, sink, std::chrono::milliseconds(1));
    }
    test_support::feed(engine, events);
    engine.drain();
    if (publisher) publisher->stop();
  }
  return registry.snapshot().counters;
}

TEST(ServeTelemetry, LiveRecordingNeverPerturbsDeterministicCounters) {
  // The acceptance contract of the whole plane: identical merged counters
  // with live telemetry off and on, for 1 and 8 shards.
  const std::vector<ServeEvent> events = events_of(small_load());
  const std::map<std::string, std::int64_t> baseline =
      counters_for(events, 1, false);
  ASSERT_GT(baseline.at("serve.events.round_open"), 0);
  EXPECT_EQ(baseline, counters_for(events, 1, true));
  EXPECT_EQ(baseline, counters_for(events, 8, false));
  EXPECT_EQ(baseline, counters_for(events, 8, true));
}

TEST(ServeTelemetry, EngineFeedsTheLivePlaneWhileServing) {
  const LoadGenConfig load = small_load(4);
  const std::vector<ServeEvent> events = events_of(load);
  LiveTelemetry live;
  ServeConfig config;
  config.shards = 2;
  config.live = &live;
  ServeEngine engine(config);
  test_support::feed(engine, events);
  engine.drain();

  const LiveSummary summary = live.summary();
  EXPECT_EQ(summary.submitted, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(summary.processed, summary.submitted);
  EXPECT_EQ(summary.rounds_closed, load.rounds);
  EXPECT_EQ(summary.queue_wait.count,
            static_cast<std::uint64_t>(summary.processed));
  EXPECT_EQ(summary.round_latency.count,
            static_cast<std::uint64_t>(load.rounds));
  EXPECT_GT(summary.queue_high_watermark, 0);

  // The deterministic plane captured the cumulative watermark too (its
  // value is scheduling-dependent; only its presence is asserted).
  EXPECT_GT(engine.stats().queue_high_watermark, 0);
  EXPECT_GE(engine.stats().queue_high_watermark,
            summary.queue_high_watermark);
}

TEST(ServeTelemetry, BatchHookCountsEveryProcessedEvent) {
  // One live-plane update per acquired batch must still account for every
  // event: processed and the queue-wait sample count both equal the
  // engine's own processed count, per-event and batched handoff alike.
  const std::vector<ServeEvent> events = events_of(small_load(8));
  for (const int shards : {1, 3}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      LiveTelemetry live;
      ServeConfig config;
      config.shards = shards;
      config.batch_size = batch;
      config.live = &live;
      ServeEngine engine(config);
      ShardBatcher batcher(engine);
      for (const ServeEvent& event : events) batcher.add(event);
      ASSERT_EQ(batcher.flush(), SubmitStatus::kAccepted);
      engine.drain();
      const std::int64_t processed = engine.stats().processed;
      ASSERT_EQ(processed, static_cast<std::int64_t>(events.size()));
      const LiveSummary summary = live.summary();
      EXPECT_EQ(summary.processed, processed)
          << "shards=" << shards << " batch=" << batch;
      EXPECT_EQ(summary.queue_wait.count,
                static_cast<std::uint64_t>(processed))
          << "shards=" << shards << " batch=" << batch;
      // Drained: nothing submitted is left queued.
      EXPECT_EQ(live.take_snapshot().total.queue_depth, 0);
    }
  }
}

TEST(ServeTelemetry, StatsPublisherEmitsParsableLinesAndFinalTail) {
  const std::vector<ServeEvent> events = events_of(small_load(3));
  LiveTelemetry live;
  ServeConfig config;
  config.live = &live;
  std::ostringstream sink;
  {
    ServeEngine engine(config);
    StatsPublisher publisher(live, sink, std::chrono::milliseconds(2));
    test_support::feed(engine, events);
    engine.drain();
    publisher.stop();
    publisher.stop();  // idempotent
    EXPECT_GE(publisher.snapshots_written(), 1);
  }
  std::istringstream lines(sink.str());
  std::string line;
  std::int64_t expected_window = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"schema\":\"mcs.serve_stats.v1\",\"window\":" +
                             std::to_string(expected_window) + ",",
                         0),
              0u)
        << line;
    EXPECT_EQ(line.back(), '}');
    ++expected_window;
  }
  EXPECT_GE(expected_window, 1);
}

// ------------------------------------------------------- open-loop pacing

TEST(ServePacing, KeepsScheduleWithAnObedientConsumer) {
  // The sleep hook advances the fake clock, so the producer lands exactly
  // on every deadline: zero lag, zero late sends, deterministic duration.
  const LoadGenConfig load = small_load(2);
  const std::int64_t total = static_cast<std::int64_t>(events_of(load).size());

  obs::FakeClock clock;
  PaceConfig pace;
  pace.target_eps = 1000.0;  // 1 ms gap
  pace.clock = &clock;
  pace.sleep_ns = [&clock](std::uint64_t ns) { clock.advance_ns(ns); };

  std::int64_t seen = 0;
  const PaceReport report =
      run_paced_load(load, pace, [&](const ServeEvent&) {
        ++seen;
        return true;
      });
  EXPECT_EQ(report.offered, total);
  EXPECT_EQ(report.accepted, total);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.late_events, 0);
  EXPECT_EQ(report.max_lag_ns, 0u);
  EXPECT_EQ(seen, total);
  EXPECT_EQ(report.duration_ns,
            static_cast<std::uint64_t>(total - 1) * 1'000'000ULL);
}

TEST(ServePacing, AccountsLatenessWhenTheConsumerDragsTheClock) {
  // Each submit burns 2.5 gaps of "wall" time (a blocking engine under
  // overload): every subsequent event is late and the lag keeps growing.
  const LoadGenConfig load = small_load(1);
  const std::int64_t total = static_cast<std::int64_t>(events_of(load).size());

  obs::FakeClock clock;
  PaceConfig pace;
  pace.target_eps = 1000.0;
  pace.clock = &clock;
  pace.sleep_ns = [&clock](std::uint64_t ns) { clock.advance_ns(ns); };

  bool accept = true;
  const PaceReport report =
      run_paced_load(load, pace, [&](const ServeEvent&) {
        clock.advance_ns(2'500'000);
        accept = !accept;
        return accept;
      });
  EXPECT_EQ(report.offered, total);
  EXPECT_EQ(report.accepted + report.shed, total);
  EXPECT_GT(report.shed, 0);
  EXPECT_EQ(report.late_events, total - 1);
  EXPECT_EQ(report.max_lag_ns,
            static_cast<std::uint64_t>(total - 1) * 1'500'000ULL);
}

TEST(ServePacing, RejectsNonPositiveTarget) {
  PaceConfig pace;
  pace.target_eps = 0.0;
  EXPECT_THROW(
      run_paced_load(small_load(1), pace, [](const ServeEvent&) {
        return true;
      }),
      InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::serve
