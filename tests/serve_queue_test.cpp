// EventRing and batched-handoff tests. The ring's depth reporting and
// high watermark are audited exactly (all-or-nothing batch pushes make
// the depth-after-push the true instantaneous occupancy), and the
// ShardBatcher path is pinned to produce byte-identical outcomes and
// deterministic counters to the event-at-a-time handoff (batch_size 1) --
// batching may only change handoff granularity, never results.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/round_trace.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/trace_plane.hpp"
#include "support/engine_feed.hpp"

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

/// One event of a view with its enqueue stamp.
struct Queued {
  ServeEvent event;
  std::uint64_t enqueue_ns{0};
};

/// The events of `view` in FIFO order with their stamps (copied out for
/// assertions); each run of the two arrays must have the same length.
std::vector<Queued> events_in(const RingView& view) {
  std::vector<Queued> out;
  for (std::size_t run = 0; run < 2; ++run) {
    EXPECT_EQ(view.events[run].size(), view.stamps[run].size());
    for (std::size_t i = 0; i < view.events[run].size(); ++i) {
      out.push_back({view.events[run][i], view.stamps[run][i]});
    }
  }
  return out;
}

TEST(EventRing, BatchPushReportsExactDepthAndWatermark) {
  EventRing ring(8);
  const std::vector<ServeEvent> five = ticks(5);
  EXPECT_EQ(ring.push_block(five.data(), 5, 0), 5);
  EXPECT_EQ(ring.high_watermark(), 5);

  RingView view;
  EXPECT_EQ(ring.acquire(view, 3, 0), 3u);
  ASSERT_EQ(view.size(), 3u);

  // The acquired slots stay the consumer's until the next acquire: with 3
  // held and 2 queued, a batch of 4 does not fit in 8.
  const std::vector<ServeEvent> four = ticks(4);
  EXPECT_EQ(ring.try_push(four.data(), 4, 0), -1);
  EXPECT_EQ(ring.try_push(four.data(), 3, 0), 5);  // 2 queued + 3
  EXPECT_EQ(ring.high_watermark(), 5);

  // Releasing the 3 and taking 1 leaves 4 queued and 1 held.
  EXPECT_EQ(ring.acquire(view, 1, 3), 1u);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(ring.push_block(four.data(), 2, 0), 6);  // 4 queued + 2
  EXPECT_EQ(ring.high_watermark(), 6);

  // All-or-nothing: 1 held + 6 queued leaves room for 1, not 2; nothing
  // is enqueued and the watermark is untouched.
  const std::vector<ServeEvent> two = ticks(2);
  EXPECT_EQ(ring.try_push(two.data(), 2, 0), -1);
  EXPECT_EQ(ring.high_watermark(), 6);
  EXPECT_EQ(ring.try_push(two.data(), 1, 0), 7);
  EXPECT_EQ(ring.high_watermark(), 7);
}

TEST(EventRing, OccupiedCountsQueuedAndHeldSlots) {
  // The placement hint counts what a push's space check counts: events
  // queued plus the ones the consumer still holds from its last acquire.
  EventRing ring(8);
  EXPECT_EQ(ring.occupied(), 0u);
  const std::vector<ServeEvent> five = ticks(5);
  ASSERT_EQ(ring.push_block(five.data(), 5, 0), 5);
  EXPECT_EQ(ring.occupied(), 5u);
  RingView view;
  ASSERT_EQ(ring.acquire(view, 3, 0), 3u);
  EXPECT_EQ(ring.occupied(), 5u);  // 2 queued, 3 held
  ASSERT_EQ(ring.acquire(view, 8, 3), 2u);
  EXPECT_EQ(ring.occupied(), 2u);  // the 3 released, 2 held
  ring.close();
  EXPECT_EQ(ring.acquire(view, 8, 2), 0u);
  EXPECT_EQ(ring.occupied(), 0u);
}

TEST(EventRing, FifoOrderSurvivesWraparound) {
  // Batches of 2 in a ring of 5 (2 held + 2 pushed fit) start at every
  // slot in turn, so some of them wrap.
  EventRing ring(5);
  RingView view;
  std::size_t released = 0;
  std::int64_t next_expected = 0;
  std::int64_t next_pushed = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    std::vector<ServeEvent> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(round_close(next_pushed++));
    }
    ASSERT_GT(ring.try_push(batch.data(), batch.size(), 0), 0);
    released = ring.acquire(view, 2, released);
    ASSERT_EQ(released, 2u);
    for (const Queued& queued : events_in(view)) {
      EXPECT_EQ(queued.event.round, next_expected++);
    }
  }
}

TEST(EventRing, ViewSplitsIntoTwoRunsAtTheWrap) {
  EventRing ring(5);
  std::vector<ServeEvent> events;
  for (int i = 0; i < 4; ++i) events.push_back(round_close(i));
  ASSERT_EQ(ring.try_push(events.data(), 4, 10), 4);
  RingView view;
  ASSERT_EQ(ring.acquire(view, 3, 0), 3u);  // slots 0..2
  EXPECT_TRUE(view.events[1].empty());
  // One queued in slot 3; three more land in slots 4, 0, 1 once the
  // acquired slots are released.
  for (int i = 0; i < 3; ++i) {
    events[static_cast<std::size_t>(i)] = round_close(4 + i);
  }
  ASSERT_EQ(ring.acquire(view, 1, 3), 1u);  // releases 0..2, takes slot 3
  ASSERT_EQ(ring.try_push(events.data(), 3, 20), 3);
  ASSERT_EQ(ring.acquire(view, 8, 1), 3u);  // slots 4, 0, 1
  EXPECT_EQ(view.events[0].size(), 1u);
  EXPECT_EQ(view.events[1].size(), 2u);
  const std::vector<Queued> got = events_in(view);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].event.round, static_cast<std::int64_t>(4 + i));
    EXPECT_EQ(got[i].enqueue_ns, 20u);
  }
  // Nothing is queued behind the 3 held: 2 free slots, depth 2 after.
  EXPECT_EQ(ring.try_push(events.data(), 3, 30), -1);
  EXPECT_EQ(ring.try_push(events.data(), 2, 30), 2);
}

TEST(EventRing, TwoPushesWrapTheEndWithTheirOwnStamps) {
  // In a ring of 6, a push stamped 7 fills slots 3 and 4, and a push
  // stamped 8 fills slots 5, 0 and 1, copying across the end of both
  // arrays. One view then holds both pushes, split at the wrap, and every
  // event keeps its push's stamp.
  EventRing ring(6);
  const auto rounds = [](int first, int n) {
    std::vector<ServeEvent> events;
    for (int i = first; i < first + n; ++i) events.push_back(round_close(i));
    return events;
  };
  RingView view;
  ASSERT_EQ(ring.try_push(rounds(0, 3).data(), 3, 1), 3);  // slots 0..2
  ASSERT_EQ(ring.acquire(view, 3, 0), 3u);
  ASSERT_EQ(ring.try_push(rounds(3, 2).data(), 2, 7), 2);  // slots 3, 4
  ASSERT_EQ(ring.acquire(view, 1, 3), 1u);  // releases 0..2, takes slot 3
  ASSERT_EQ(ring.try_push(rounds(5, 3).data(), 3, 8), 4);  // slots 5, 0, 1
  ASSERT_EQ(ring.acquire(view, 8, 1), 4u);  // slots 4, 5 | 0, 1
  EXPECT_EQ(view.events[0].size(), 2u);
  EXPECT_EQ(view.events[1].size(), 2u);
  const std::vector<Queued> got = events_in(view);
  ASSERT_EQ(got.size(), 4u);
  const std::uint64_t stamps[] = {7, 8, 8, 8};
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].event.round, static_cast<std::int64_t>(4 + i));
    EXPECT_EQ(got[i].enqueue_ns, stamps[i]) << "event " << i;
  }
}

TEST(EventRing, StretchesGroupEqualKeysAcrossTheWrap) {
  const std::vector<std::uint64_t> tail = {5, 5};
  const std::vector<std::uint64_t> head = {5, 9, 5};
  const std::array<std::span<const std::uint64_t>, 2> runs = {tail, head};
  std::vector<std::pair<std::uint64_t, std::size_t>> stretches;
  for_each_stretch(runs, std::identity{},
                   [&](std::uint64_t stamp, std::size_t n) {
                     stretches.emplace_back(stamp, n);
                   });
  const std::vector<std::pair<std::uint64_t, std::size_t>> expected = {
      {5, 3}, {9, 1}, {5, 1}};
  EXPECT_EQ(stretches, expected);
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
                                   EventRing::kSlotBytes +
                               1),
               InvalidArgumentError);
}

TEST(EventRing, CloseFailsPushesAndDrainsPops) {
  EventRing ring(4);
  const std::vector<ServeEvent> three = ticks(3);
  EXPECT_EQ(ring.push_block(three.data(), 3, 0), 3);
  ring.close();
  EXPECT_EQ(ring.push_block(three.data(), 2, 0), -1);
  EXPECT_EQ(ring.try_push(three.data(), 2, 0), -1);
  // The queued tail still drains, batch by batch, in order.
  RingView view;
  EXPECT_EQ(ring.acquire(view, 2, 0), 2u);
  EXPECT_EQ(events_in(view)[0].event.round, 0);
  EXPECT_EQ(ring.acquire(view, 2, 2), 1u);
  EXPECT_EQ(events_in(view)[0].event.round, 2);
  EXPECT_EQ(ring.acquire(view, 2, 1), 0u);  // closed and empty
  EXPECT_EQ(view.size(), 0u);
}

TEST(EventRing, CloseWakesAParkedConsumer) {
  EventRing ring(4);
  std::size_t got = 99;
  std::thread consumer([&] {
    RingView view;
    got = ring.acquire(view, 4, 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ring.close();
  consumer.join();
  EXPECT_EQ(got, 0u);
}

TEST(EventRing, NoLostWakeupsUnderBlockingProducers) {
  // Three producers push_block batches of 3 into a ring of 8 while the one
  // consumer parks, holds and releases in-place batches and sometimes
  // sleeps: every waiter-gated wakeup must land, so the run finishes, and
  // every event arrives exactly once in its producer's order.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  constexpr std::size_t kBatch = 3;
  EventRing ring(8);
  std::vector<std::vector<std::int32_t>> seen(kProducers);
  std::atomic<bool> finished{false};

  std::thread consumer([&] {
    RingView view;
    std::size_t released = 0;
    std::int64_t batches = 0;
    while ((released = ring.acquire(view, kBatch, released)) > 0) {
      for (const Queued& queued : events_in(view)) {
        seen[static_cast<std::size_t>(queued.event.round)].push_back(
            queued.event.task.value());
      }
      if (++batches % 97 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      std::vector<ServeEvent> batch;
      for (int i = 0; i < kPerProducer; i += static_cast<int>(kBatch)) {
        batch.clear();
        for (int j = i; j < i + static_cast<int>(kBatch); ++j) {
          batch.push_back(task_arrived(p, Slot{1}, TaskId{j}));
        }
        ASSERT_GT(ring.push_block(batch.data(), batch.size(), 0), 0);
      }
    });
  }
  // A lost wakeup parks a thread forever: close the ring after a generous
  // deadline so the test fails instead of hanging.
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!finished.load()) ring.close();
  });
  for (std::thread& producer : producers) producer.join();
  ring.close();
  consumer.join();
  finished.store(true);
  watchdog.join();

  for (int p = 0; p < kProducers; ++p) {
    const std::vector<std::int32_t>& got = seen[static_cast<std::size_t>(p)];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kPerProducer))
        << "producer " << p;
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "producer " << p;
    }
  }
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
  test_support::feed(reference, events);
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
      EXPECT_EQ(batcher.accepted_events(), expected);
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

TEST(ShardBatcherTest, EachRoundOpensOnTheLeastLoadedShard) {
  // Nothing reaches a ring before the final flush (no buffer fills a batch
  // of 64), so the load is what the batcher holds per shard. Ties go to
  // the shard after the last one chosen. The trace plane records where
  // each round ran.
  const auto round_of = [](std::int64_t round, int events) {
    std::vector<ServeEvent> out = {
        round_open(round, events - 2, Money::from_units(10))};
    for (int t = 1; t <= events - 2; ++t) {
      out.push_back(slot_tick(round, Slot{t}));
    }
    out.push_back(round_close(round));
    return out;
  };
  TracePlaneConfig trace_config;
  trace_config.slow_threshold_ns = 1;  // retain every round
  TracePlane trace(trace_config);
  ServeConfig config;
  config.shards = 3;
  config.batch_size = 64;
  config.trace = &trace;
  ServeEngine engine(config);
  ShardBatcher batcher(engine);
  // round: events -> loads (shard 0, 1, 2) at its open -> shard
  //   0: 10 -> (0, 0, 0) -> 0      3: 3 -> (10, 5, 3) -> 2
  //   1: 5 -> (10, 0, 0) -> 1      4: 3 -> (10, 5, 6) -> 1
  //   2: 3 -> (10, 5, 0) -> 2
  const std::vector<std::pair<int, int>> rounds = {
      {10, 0}, {5, 1}, {3, 2}, {3, 2}, {3, 1}};
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (const ServeEvent& event :
         round_of(static_cast<std::int64_t>(r), rounds[r].first)) {
      ASSERT_EQ(batcher.add(event), SubmitStatus::kAccepted);
    }
  }
  ASSERT_EQ(batcher.flush(), SubmitStatus::kAccepted);
  engine.drain();
  std::map<std::int64_t, int> shard_of;
  for (const obs::RoundTrace& round_trace : trace.retained()) {
    shard_of[round_trace.round] = round_trace.shard;
  }
  ASSERT_EQ(shard_of.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(shard_of.at(static_cast<std::int64_t>(r)), rounds[r].second)
        << "round " << r;
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
  // Any shard is a valid route for a round, but a round split over two is
  // not served: its open lands on shard 0 and the rest on shard 1, whose
  // worker never opened it. The split is counted under kReject and fails
  // the run under kBlock.
  const std::vector<ServeEvent> round = {
      round_open(5, 1, Money::from_units(10)),
      task_arrived(5, Slot{1}, TaskId{0}), slot_tick(5, Slot{1}),
      round_close(5)};
  for (const ServeConfig::Admission admission :
       {ServeConfig::Admission::kReject, ServeConfig::Admission::kBlock}) {
    const bool reject = admission == ServeConfig::Admission::kReject;
    SCOPED_TRACE(reject ? "reject" : "block");
    ServeConfig config;
    config.shards = 2;
    config.admission = admission;
    ServeEngine engine(config);
    EXPECT_THROW((void)engine.submit_batch(2, round.data(), 1),
                 InvalidArgumentError);
    ASSERT_EQ(engine.submit_batch(0, round.data(), 1),
              SubmitStatus::kAccepted);
    ASSERT_EQ(engine.submit_batch(1, round.data() + 1, round.size() - 1),
              SubmitStatus::kAccepted);
    if (!reject) {
      EXPECT_THROW(engine.drain(), InvalidArgumentError);
      continue;
    }
    engine.drain();
    const ServeStats& stats = engine.stats();
    EXPECT_EQ(stats.orphaned_events, 3);
    EXPECT_EQ(stats.rounds_abandoned, 1);
    EXPECT_EQ(stats.rounds_completed, 0);
    EXPECT_TRUE(engine.take_outcomes().empty());
  }
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
