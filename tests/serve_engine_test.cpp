// Tests for the sharded streaming engine: the streaming/batch equivalence
// oracle (replaying an event file through the engine reproduces the batch
// OnlineGreedyMechanism byte for byte, for any shard count), shard-count
// determinism of both outcomes and merged telemetry counters, admission
// control under both policies, strict stream validation, and drain
// semantics.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/replay.hpp"
#include "serve/verify.hpp"
#include "serve/wire.hpp"

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

std::vector<RoundOutcome> run_engine(const std::vector<ServeEvent>& events,
                                     ServeConfig config) {
  ServeEngine engine(config);
  for (const ServeEvent& event : events) engine.submit(event);
  engine.drain();
  return engine.take_outcomes();
}

void expect_same_outcomes(const std::vector<RoundOutcome>& a,
                          const std::vector<RoundOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].total_paid, b[i].total_paid);
    EXPECT_EQ(a[i].tasks_announced, b[i].tasks_announced);
    EXPECT_EQ(a[i].bids_admitted, b[i].bids_admitted);
    EXPECT_EQ(a[i].bids_rejected, b[i].bids_rejected);
    EXPECT_EQ(a[i].events_consumed, b[i].events_consumed);
    EXPECT_EQ(a[i].outcome.payments, b[i].outcome.payments);
    ASSERT_EQ(a[i].outcome.allocation.task_count(),
              b[i].outcome.allocation.task_count());
    for (int t = 0; t < a[i].outcome.allocation.task_count(); ++t) {
      EXPECT_TRUE(a[i].outcome.allocation.phone_for(TaskId{t}) ==
                  b[i].outcome.allocation.phone_for(TaskId{t}))
          << "round " << a[i].round << " task " << t;
    }
  }
}

// ----------------------------------------------- streaming/batch oracle

TEST(ServeEngine, StreamedOutcomesMatchBatchMechanism_Shards1And4) {
  // The acceptance oracle: replaying a generated event file through the
  // sharded engine reproduces the batch OnlineGreedyMechanism outcome
  // byte-identically per round, for shard counts 1 and 4.
  const LoadGenConfig load = small_load(8);
  for (const int shards : {1, 4}) {
    std::ostringstream recorded;
    write_event_stream(recorded, load);

    ServeConfig config;
    config.shards = shards;
    ServeEngine engine(config);
    std::istringstream is(recorded.str());
    const ReplayStats replay = replay_event_stream(is, engine);
    engine.drain();
    EXPECT_EQ(replay.shed, 0);
    EXPECT_EQ(replay.events, replay.accepted);

    const std::vector<RoundOutcome> outcomes = engine.take_outcomes();
    ASSERT_EQ(static_cast<std::int64_t>(outcomes.size()), load.rounds);
    const VerifyReport report =
        verify_against_batch(load, outcomes, config.greedy);
    EXPECT_EQ(report.rounds_checked, load.rounds);
    EXPECT_TRUE(report.clean()) << "shards=" << shards << ": "
                                << report.first_diff;
  }
}

TEST(ServeEngine, EquivalenceHoldsUnderReserveAndProfitabilityKnobs) {
  const LoadGenConfig load = small_load(5);
  ServeConfig config;
  config.shards = 2;
  config.greedy.reserve_price = Money::from_units(30);
  config.greedy.allocate_only_profitable = true;
  config.greedy.scarce_payment =
      auction::OnlineGreedyConfig::ScarcePayment::kOwnBid;

  const std::vector<RoundOutcome> outcomes =
      run_engine(events_of(load), config);
  ASSERT_EQ(static_cast<std::int64_t>(outcomes.size()), load.rounds);
  const VerifyReport report =
      verify_against_batch(load, outcomes, config.greedy);
  EXPECT_TRUE(report.clean()) << report.first_diff;
}

// ------------------------------------------------- shard determinism

TEST(ServeEngine, OutcomesIdenticalForAnyShardCount) {
  const std::vector<ServeEvent> events = events_of(small_load());
  ServeConfig config;
  config.shards = 1;
  const std::vector<RoundOutcome> baseline = run_engine(events, config);
  for (const int shards : {2, 8}) {
    config.shards = shards;
    expect_same_outcomes(baseline, run_engine(events, config));
  }
}

TEST(ServeEngine, MergedCountersIdenticalForAnyShardCount) {
  // Per-shard registries fold via the deterministic merge, and every
  // counter on the serve path is per-event work (block admission loses
  // nothing), so the merged counter values must not depend on the shard
  // count. Durations live in span histograms, which are excluded here.
  const std::vector<ServeEvent> events = events_of(small_load());
  const auto counters_for = [&](int shards) {
    obs::MetricsRegistry registry;
    {
      const obs::ScopedRegistry guard(&registry);
      ServeConfig config;
      config.shards = shards;
      ServeEngine engine(config);
      for (const ServeEvent& event : events) engine.submit(event);
      engine.drain();
    }
    return registry.snapshot().counters;
  };

  const std::map<std::string, std::int64_t> baseline = counters_for(1);
  EXPECT_GT(baseline.at("serve.events.round_open"), 0);
  EXPECT_GT(baseline.at("serve.rounds_completed"), 0);
  for (const int shards : {2, 8}) {
    EXPECT_EQ(baseline, counters_for(shards)) << "shards=" << shards;
  }
}

TEST(ServeEngine, ShardOfRoundIsStableAndInRange) {
  for (const int shards : {1, 2, 7, 16}) {
    for (std::int64_t round = 0; round < 100; ++round) {
      const int shard = shard_of_round(round, shards);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, shard_of_round(round, shards));  // pure function
    }
  }
  EXPECT_EQ(shard_of_round(12345, 1), 0);
}

// --------------------------------------------------- loadgen + replay

TEST(ServeLoadGen, SameSeedSameBytes) {
  const LoadGenConfig load = small_load(3);
  std::ostringstream a;
  std::ostringstream b;
  EXPECT_EQ(write_event_stream(a, load), write_event_stream(b, load));
  EXPECT_EQ(a.str(), b.str());

  LoadGenConfig other = load;
  other.seed = load.seed + 1;
  std::ostringstream c;
  write_event_stream(c, other);
  EXPECT_NE(a.str(), c.str());
}

TEST(ServeReplay, ReplayOfRecordedStreamMatchesDirectFeed) {
  const LoadGenConfig load = small_load(4);
  const std::vector<ServeEvent> events = events_of(load);

  ServeConfig config;
  config.shards = 3;
  const std::vector<RoundOutcome> direct = run_engine(events, config);

  std::ostringstream recorded;
  write_event_stream(recorded, load);
  ServeEngine engine(config);
  std::istringstream is(recorded.str());
  const ReplayStats stats = replay_event_stream(is, engine);
  engine.drain();

  EXPECT_EQ(stats.events, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(stats.lines, stats.events + 1);  // + header
  EXPECT_EQ(stats.shed, 0);
  expect_same_outcomes(direct, engine.take_outcomes());
}

TEST(ServeReplay, MalformedLineReportsItsLineNumber) {
  ServeConfig config;
  ServeEngine engine(config);
  std::istringstream is(
      "{\"schema\":\"mcs.serve.v1\"}\n"
      "{\"ev\":\"round_open\",\"round\":0,\"slots\":3,\"value\":\"10\"}\n"
      "{\"ev\":\"slot_tick\",\"round\":0,\"slot\":\n");
  try {
    replay_event_stream(is, engine);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  engine.drain();
}

TEST(ServeReplay, BinaryReplayMatchesJsonlReplay) {
  const LoadGenConfig load = small_load(5);
  std::ostringstream jsonl;
  write_event_stream(jsonl, load);
  std::istringstream jsonl_in(jsonl.str());
  std::ostringstream binary;
  transcode_serve_stream(jsonl_in, binary, WireFormat::kBinary);

  ServeConfig config;
  config.shards = 2;
  ServeEngine via_jsonl(config);
  std::istringstream a(jsonl.str());
  const ReplayStats jsonl_stats = replay_event_stream(a, via_jsonl);
  via_jsonl.drain();

  ServeEngine via_binary(config);
  std::istringstream b(binary.str());
  const ReplayStats binary_stats = replay_event_stream(b, via_binary);
  via_binary.drain();

  EXPECT_EQ(binary_stats.events, jsonl_stats.events);
  EXPECT_EQ(binary_stats.accepted, jsonl_stats.accepted);
  EXPECT_EQ(binary_stats.lines, 0);  // frames are not line-shaped
  expect_same_outcomes(via_jsonl.take_outcomes(), via_binary.take_outcomes());
}

TEST(ServeReplay, BatchedReplayMatchesPerEventReplay) {
  const LoadGenConfig load = small_load(5);
  std::ostringstream recorded;
  write_event_stream(recorded, load);

  ServeConfig config;
  config.shards = 4;
  ServeEngine per_event(config);
  std::istringstream a(recorded.str());
  const ReplayStats one_at_a_time = replay_event_stream(a, per_event);
  per_event.drain();

  config.batch_size = 32;
  ServeEngine batched(config);
  std::istringstream b(recorded.str());
  const ReplayStats in_batches =
      replay_event_stream(b, batched, /*batch=*/true);
  batched.drain();

  EXPECT_EQ(in_batches.events, one_at_a_time.events);
  EXPECT_EQ(in_batches.accepted, one_at_a_time.accepted);
  EXPECT_EQ(in_batches.shed, 0);
  expect_same_outcomes(per_event.take_outcomes(), batched.take_outcomes());
}

TEST(ServeReplay, TruncatedBinaryStreamReportsByteOffset) {
  const LoadGenConfig load = small_load(2);
  std::ostringstream jsonl;
  write_event_stream(jsonl, load);
  std::istringstream jsonl_in(jsonl.str());
  std::ostringstream binary;
  transcode_serve_stream(jsonl_in, binary, WireFormat::kBinary);
  std::string bytes = binary.str();
  bytes.pop_back();

  ServeConfig config;
  ServeEngine engine(config);
  std::istringstream is(bytes);
  try {
    replay_event_stream(is, engine);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  engine.drain();
}

// --------------------------------------------------- admission control

TEST(ServeEngine, BlockAdmissionLosesNothingEvenWithATinyQueue) {
  // queue_capacity 1 forces constant producer/consumer handoff; block
  // admission must still deliver every event exactly once.
  const LoadGenConfig load = small_load(4);
  ServeConfig config;
  config.shards = 2;
  config.queue_capacity = 1;
  const std::vector<RoundOutcome> outcomes =
      run_engine(events_of(load), config);
  ASSERT_EQ(static_cast<std::int64_t>(outcomes.size()), load.rounds);
  EXPECT_TRUE(verify_against_batch(load, outcomes, config.greedy).clean());
}

TEST(ServeEngine, RejectAdmissionShedsButCompletedRoundsStayExact) {
  // Under load shedding rounds may be lost whole or dropped mid-flight,
  // but any round that *does* complete consumed its full event sequence,
  // so it must still be byte-identical to the batch mechanism.
  const LoadGenConfig load = small_load(8);
  const std::vector<ServeEvent> events = events_of(load);
  ServeConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.admission = ServeConfig::Admission::kReject;

  ServeEngine engine(config);
  std::int64_t accepted = 0;
  std::int64_t shed = 0;
  for (const ServeEvent& event : events) {
    switch (engine.submit(event)) {
      case SubmitStatus::kAccepted:
        ++accepted;
        break;
      case SubmitStatus::kRejectedQueueFull:
        ++shed;
        break;
      case SubmitStatus::kRejectedStopped:
        FAIL() << "engine is not stopping";
    }
  }
  engine.drain();  // shedding must never poison the engine

  const ServeStats& stats = engine.stats();
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.rejected_backpressure, shed);
  EXPECT_EQ(stats.processed, accepted);
  EXPECT_EQ(accepted + shed, static_cast<std::int64_t>(events.size()));

  for (const RoundOutcome& outcome : engine.take_outcomes()) {
    const model::Scenario scenario = loadgen_scenario(load, outcome.round);
    EXPECT_EQ(diff_against_batch(scenario, scenario.truthful_bids(), outcome,
                                 config.greedy),
              "");
  }
}

TEST(ServeEngine, RejectPolicyCountsOrphansInsteadOfFailing) {
  ServeConfig config;
  config.admission = ServeConfig::Admission::kReject;
  ServeEngine engine(config);
  // Round 9 was never opened (as if its round_open had been shed).
  EXPECT_EQ(engine.submit(slot_tick(9, Slot{1})), SubmitStatus::kAccepted);
  EXPECT_EQ(engine.submit(round_close(9)), SubmitStatus::kAccepted);
  engine.drain();
  EXPECT_EQ(engine.stats().orphaned_events, 2);
  EXPECT_EQ(engine.stats().rounds_corrupted, 0);
  EXPECT_TRUE(engine.take_outcomes().empty());
}

TEST(ServeEngine, RejectPolicyAbandonsACorruptedRound) {
  ServeConfig config;
  config.admission = ServeConfig::Admission::kReject;
  ServeEngine engine(config);
  engine.submit(round_open(1, 3, Money::from_units(10)));
  // Slot 2 arrives while the round clock still sits at slot 1 -- the kind
  // of hole shedding a slot_tick leaves behind.
  engine.submit(task_arrived(1, Slot{2}, TaskId{0}));
  engine.submit(round_close(1));
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_corrupted, 1);
  // The close after the corruption is an orphan of the dropped round.
  EXPECT_EQ(engine.stats().orphaned_events, 1);
  EXPECT_TRUE(engine.take_outcomes().empty());
}

// ------------------------------------------------- strict stream errors

TEST(ServeEngine, BlockPolicyFailsOnEventForUnopenedRound) {
  ServeConfig config;
  ServeEngine engine(config);
  engine.submit(slot_tick(3, Slot{1}));
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnDuplicateRoundOpen) {
  ServeConfig config;
  ServeEngine engine(config);
  engine.submit(round_open(0, 3, Money::from_units(10)));
  engine.submit(round_open(0, 3, Money::from_units(10)));
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnOutOfOrderSlot) {
  ServeConfig config;
  ServeEngine engine(config);
  engine.submit(round_open(0, 4, Money::from_units(10)));
  engine.submit(slot_tick(0, Slot{2}));  // clock expects slot 1
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnAgentBiddingTwice) {
  // The first bid is turned away by the reserve; it still counts as the
  // agent's one bid of the round.
  ServeConfig config;
  config.greedy.reserve_price = Money::from_units(30);
  ServeEngine engine(config);
  engine.submit(round_open(0, 3, Money::from_units(50)));
  const SlotInterval window = SlotInterval::of(1, 2);
  engine.submit(bid_submitted(0, PhoneId{4},
                              model::Bid{window, Money::from_units(40)}));
  engine.submit(bid_submitted(0, PhoneId{4},
                              model::Bid{window, Money::from_units(20)}));
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnAgentIdBeyondThePhoneRange) {
  // One past the largest agent id is the phone count, which must fit an
  // int; the machine keeps nothing sized by the id itself, not even in
  // the econ plane's capture mode. The crafted round fails the stream
  // under kBlock and is one corrupted round, beside a normal one that
  // completes, under kReject.
  const model::Bid bid{SlotInterval::of(1, 1), Money::from_units(5)};
  for (const bool with_econ : {false, true}) {
    for (const ServeConfig::Admission admission :
         {ServeConfig::Admission::kBlock, ServeConfig::Admission::kReject}) {
      SCOPED_TRACE(::testing::Message()
                   << "econ " << with_econ << ", admission "
                   << (admission == ServeConfig::Admission::kBlock
                           ? "block"
                           : "reject"));
      EconTelemetry econ;
      ServeConfig config;
      config.admission = admission;
      if (with_econ) config.econ = &econ;
      ServeEngine engine(config);
      engine.submit(round_open(0, 1, Money::from_units(50)));
      engine.submit(
          bid_submitted(0, PhoneId{std::numeric_limits<int>::max()}, bid));
      engine.submit(slot_tick(0, Slot{1}));
      engine.submit(round_close(0));
      engine.submit(round_open(1, 1, Money::from_units(50)));
      engine.submit(task_arrived(1, Slot{1}, TaskId{0}));
      engine.submit(bid_submitted(1, PhoneId{0}, bid));
      engine.submit(slot_tick(1, Slot{1}));
      engine.submit(round_close(1));
      if (admission == ServeConfig::Admission::kBlock) {
        EXPECT_THROW(engine.drain(), InvalidArgumentError);
        continue;
      }
      engine.drain();
      EXPECT_EQ(engine.stats().rounds_corrupted, 1);
      EXPECT_EQ(engine.stats().rounds_completed, 1);
      EXPECT_EQ(engine.stats().orphaned_events, 0);
      if (with_econ) {
        EXPECT_EQ(econ.take_snapshot().cumulative.rounds, 1);
        EXPECT_EQ(econ.violations(), 0);
      }
    }
  }
}

// ------------------------------------------------------ drain semantics

TEST(ServeEngine, DrainIsIdempotentAndStopsAdmission) {
  ServeConfig config;
  config.shards = 2;
  ServeEngine engine(config);
  engine.submit(round_open(0, 1, Money::from_units(10)));
  engine.submit(slot_tick(0, Slot{1}));
  engine.submit(round_close(0));
  engine.drain();
  engine.drain();  // no-op
  EXPECT_EQ(engine.submit(round_close(1)), SubmitStatus::kRejectedStopped);
  EXPECT_EQ(engine.stats().rounds_completed, 1);
}

TEST(ServeEngine, OpenRoundsAtShutdownAreAbandonedNotInvented) {
  ServeConfig config;
  ServeEngine engine(config);
  engine.submit(round_open(0, 5, Money::from_units(10)));
  engine.submit(slot_tick(0, Slot{1}));  // never closed
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_abandoned, 1);
  EXPECT_EQ(engine.stats().rounds_completed, 0);
  EXPECT_TRUE(engine.take_outcomes().empty());
}

TEST(ServeEngine, OutcomesAreSortedByRoundId) {
  ServeConfig config;
  config.shards = 4;
  ServeEngine engine(config);
  // Feed rounds in reverse id order; take_outcomes must sort.
  for (const std::int64_t round : {5, 3, 1, 0}) {
    engine.submit(round_open(round, 1, Money::from_units(10)));
    engine.submit(slot_tick(round, Slot{1}));
    engine.submit(round_close(round));
  }
  engine.drain();
  const std::vector<RoundOutcome> outcomes = engine.take_outcomes();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].round, 0);
  EXPECT_EQ(outcomes[1].round, 1);
  EXPECT_EQ(outcomes[2].round, 3);
  EXPECT_EQ(outcomes[3].round, 5);
}

TEST(ServeEngine, StatsAggregateAcrossShards) {
  const LoadGenConfig load = small_load(5);
  const std::vector<ServeEvent> events = events_of(load);
  ServeConfig config;
  config.shards = 3;
  ServeEngine engine(config);
  for (const ServeEvent& event : events) engine.submit(event);
  engine.drain();

  const ServeStats& stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(stats.processed, stats.submitted);
  EXPECT_EQ(stats.rounds_completed, load.rounds);

  Money total;
  std::int64_t tasks = 0;
  for (const RoundOutcome& outcome : engine.take_outcomes()) {
    total += outcome.total_paid;
    tasks += outcome.tasks_announced;
  }
  EXPECT_EQ(stats.total_paid, total);
  EXPECT_EQ(stats.tasks_announced, tasks);
}

TEST(ServeEngine, QueueHighWatermarkIsTrackedAndMaxMerged) {
  // The watermark's value is scheduling-dependent, but it must be > 0
  // whenever anything queued, bounded by capacity, and max-merged into the
  // drain totals (plus exported as the serve.queue_high_watermark gauge).
  const std::vector<ServeEvent> events = events_of(small_load(4));
  obs::MetricsRegistry registry;
  std::int64_t watermark = 0;
  {
    const obs::ScopedRegistry guard(&registry);
    ServeConfig config;
    config.shards = 2;
    config.queue_capacity = 8;
    ServeEngine engine(config);
    for (const ServeEvent& event : events) engine.submit(event);
    engine.drain();
    watermark = engine.stats().queue_high_watermark;
  }
  EXPECT_GT(watermark, 0);
  EXPECT_LE(watermark, 8);
  const auto gauges = registry.snapshot().gauges;
  ASSERT_EQ(gauges.count("serve.queue_high_watermark"), 1u);
  EXPECT_EQ(static_cast<std::int64_t>(gauges.at("serve.queue_high_watermark")),
            watermark);
  // Per-shard gauges exist for every shard and max up to the total.
  std::int64_t shard_max = 0;
  for (const int shard : {0, 1}) {
    const std::string name =
        "serve.shard." + std::to_string(shard) + ".queue_high_watermark";
    ASSERT_EQ(gauges.count(name), 1u) << name;
    shard_max = std::max(shard_max,
                         static_cast<std::int64_t>(gauges.at(name)));
  }
  EXPECT_EQ(shard_max, watermark);
}

TEST(ServeConfigTest, ValidateRejectsOutOfDomainKnobs) {
  ServeConfig bad_shards;
  bad_shards.shards = 0;
  EXPECT_THROW(bad_shards.validate(), InvalidArgumentError);
  ServeConfig bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(bad_queue.validate(), InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::serve
