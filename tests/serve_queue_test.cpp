// EventRing and batched-handoff tests. The ring's depth reporting and
// high watermark are audited exactly (all-or-nothing batch pushes make
// the depth-after-push the true instantaneous occupancy), and the
// ShardBatcher path is pinned to produce byte-identical outcomes and
// deterministic counters to the event-at-a-time path -- batching may only
// change handoff granularity, never results.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace mcs::serve {
namespace {

std::vector<ServeEvent> ticks(int count) {
  std::vector<ServeEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    events.push_back(slot_tick(i, Slot{1}));
  }
  return events;
}

// ------------------------------------------------------------- EventRing

TEST(EventRing, BatchPushReportsExactDepthAndWatermark) {
  EventRing ring(8);
  const std::vector<ServeEvent> five = ticks(5);
  EXPECT_EQ(ring.push_block(five.data(), 5, 0), 5);
  EXPECT_EQ(ring.high_watermark(), 5);

  std::vector<PoppedEvent> out;
  EXPECT_EQ(ring.pop_batch(out, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  // Per-event depth_left matches what one-at-a-time pops would have seen.
  EXPECT_EQ(out[0].depth_left, 4);
  EXPECT_EQ(out[1].depth_left, 3);
  EXPECT_EQ(out[2].depth_left, 2);

  const std::vector<ServeEvent> four = ticks(4);
  EXPECT_EQ(ring.push_block(four.data(), 4, 0), 6);  // 2 remained + 4
  EXPECT_EQ(ring.high_watermark(), 6);

  // All-or-nothing: a batch of 3 would need 9 slots; nothing is enqueued
  // and the watermark is untouched.
  const std::vector<ServeEvent> three = ticks(3);
  EXPECT_EQ(ring.try_push(three.data(), 3, 0), -1);
  EXPECT_EQ(ring.high_watermark(), 6);

  const std::vector<ServeEvent> two = ticks(2);
  EXPECT_EQ(ring.try_push(two.data(), 2, 0), 8);
  EXPECT_EQ(ring.high_watermark(), 8);
}

TEST(EventRing, FifoOrderSurvivesWraparound) {
  EventRing ring(4);
  std::vector<PoppedEvent> out;
  std::int64_t next_expected = 0;
  std::int64_t next_pushed = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<ServeEvent> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(round_close(next_pushed++));
    }
    ASSERT_GT(ring.push_block(batch.data(), batch.size(), 0), 0);
    out.clear();
    ASSERT_EQ(ring.pop_batch(out, 3), 3u);
    for (const PoppedEvent& popped : out) {
      EXPECT_EQ(popped.event.round, next_expected++);
    }
  }
}

TEST(EventRing, OversizedBatchThrowsInsteadOfDeadlocking) {
  EventRing ring(4);
  const std::vector<ServeEvent> five = ticks(5);
  EXPECT_THROW((void)ring.push_block(five.data(), 5, 0),
               InvalidArgumentError);
  EXPECT_THROW((void)EventRing(0), InvalidArgumentError);
}

TEST(EventRing, CapacityWhoseStorageOverflowsIsRejected) {
  // A negative --queue-depth casts to a huge size_t; its byte count must
  // not wrap around to a small allocation.
  EXPECT_THROW((void)EventRing(std::numeric_limits<std::size_t>::max()),
               InvalidArgumentError);
  EXPECT_THROW((void)EventRing(std::numeric_limits<std::size_t>::max() /
                                   sizeof(QueuedEvent) +
                               1),
               InvalidArgumentError);
}

TEST(EventRing, CloseFailsPushesAndDrainsPops) {
  EventRing ring(4);
  const std::vector<ServeEvent> two = ticks(2);
  EXPECT_EQ(ring.push_block(two.data(), 2, 0), 2);
  ring.close();
  EXPECT_EQ(ring.push_block(two.data(), 2, 0), -1);
  EXPECT_EQ(ring.try_push(two.data(), 2, 0), -1);
  std::vector<PoppedEvent> out;
  EXPECT_EQ(ring.pop_batch(out, 8), 2u);  // the queued tail still drains
  EXPECT_EQ(ring.pop_batch(out, 8), 0u);  // closed and empty
}

// ----------------------------------------------------- batched engine path

std::vector<ServeEvent> load_events() {
  LoadGenConfig config;
  config.rounds = 10;
  config.seed = 11;
  std::vector<ServeEvent> events;
  generate_events(config, [&](const ServeEvent& event) {
    events.push_back(event);
    return true;
  });
  return events;
}

void expect_same_outcomes(const std::vector<RoundOutcome>& a,
                          const std::vector<RoundOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].total_paid, b[i].total_paid);
    EXPECT_EQ(a[i].tasks_announced, b[i].tasks_announced);
    EXPECT_EQ(a[i].bids_admitted, b[i].bids_admitted);
    EXPECT_EQ(a[i].outcome.payments, b[i].outcome.payments);
  }
}

TEST(ShardBatcherTest, BatchedFeedMatchesPerEventFeedForAnyGeometry) {
  const std::vector<ServeEvent> events = load_events();
  ServeConfig reference_config;
  reference_config.shards = 1;
  ServeEngine reference(reference_config);
  for (const ServeEvent& event : events) reference.submit(event);
  reference.drain();
  const std::vector<RoundOutcome> baseline = reference.take_outcomes();
  const std::int64_t expected = static_cast<std::int64_t>(events.size());

  for (const int shards : {1, 2, 8}) {
    for (const std::size_t batch : {std::size_t{2}, std::size_t{16},
                                    std::size_t{64}}) {
      ServeConfig config;
      config.shards = shards;
      config.batch_size = batch;
      ServeEngine engine(config);
      ShardBatcher batcher(engine);
      for (const ServeEvent& event : events) {
        EXPECT_EQ(batcher.add(event), SubmitStatus::kAccepted);
      }
      EXPECT_EQ(batcher.flush(), SubmitStatus::kAccepted);
      EXPECT_EQ(batcher.buffered(), 0);
      engine.drain();
      EXPECT_EQ(engine.stats().submitted, expected)
          << "shards=" << shards << " batch=" << batch;
      expect_same_outcomes(baseline, engine.take_outcomes());
    }
  }
}

TEST(ShardBatcherTest, DeterministicCountersSurviveBatchingAndSharding) {
  // The 1-shard/8-shard counter identity is the serving plane's core
  // invariant; the batched handoff must preserve it bit for bit.
  const std::vector<ServeEvent> events = load_events();
  const auto counters_for = [&](int shards, std::size_t batch) {
    obs::MetricsRegistry registry;
    {
      const obs::ScopedRegistry guard(&registry);
      ServeConfig config;
      config.shards = shards;
      config.batch_size = batch;
      ServeEngine engine(config);
      ShardBatcher batcher(engine);
      for (const ServeEvent& event : events) batcher.add(event);
      batcher.flush();
      engine.drain();
    }
    return registry.snapshot().counters;
  };

  const std::map<std::string, std::int64_t> baseline = counters_for(1, 1);
  EXPECT_GT(baseline.at("serve.events.round_open"), 0);
  for (const int shards : {1, 8}) {
    for (const std::size_t batch : {std::size_t{16}, std::size_t{64}}) {
      EXPECT_EQ(baseline, counters_for(shards, batch))
          << "shards=" << shards << " batch=" << batch;
    }
  }
}

TEST(ShardBatcherTest, WatermarkNeverExceedsCapacityUnderBatching) {
  const std::vector<ServeEvent> events = load_events();
  ServeConfig config;
  config.shards = 2;
  config.queue_capacity = 64;
  config.batch_size = 64;
  ServeEngine engine(config);
  ShardBatcher batcher(engine);
  for (const ServeEvent& event : events) batcher.add(event);
  batcher.flush();
  engine.drain();
  EXPECT_GT(engine.stats().queue_high_watermark, 0);
  EXPECT_LE(engine.stats().queue_high_watermark, 64);
}

TEST(ServeEngineBatch, MisroutedBatchIsRejectedLoudly) {
  ServeConfig config;
  config.shards = 8;
  ServeEngine engine(config);
  // Find a round that does NOT hash to shard 0 and submit it there.
  std::int64_t round = 0;
  while (shard_of_round(round, 8) == 0) ++round;
  const ServeEvent event = round_open(round, 3, Money::from_units(1));
  EXPECT_THROW((void)engine.submit_batch(0, &event, 1),
               InvalidArgumentError);
  EXPECT_THROW((void)engine.submit_batch(8, &event, 1),
               InvalidArgumentError);
  engine.drain();
}

TEST(ServeEngineBatch, ValidateRejectsBadBatchSize) {
  ServeConfig zero;
  zero.batch_size = 0;
  EXPECT_THROW(zero.validate(), InvalidArgumentError);
  ServeConfig oversized;
  oversized.queue_capacity = 16;
  oversized.batch_size = 17;
  EXPECT_THROW(oversized.validate(), InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::serve
