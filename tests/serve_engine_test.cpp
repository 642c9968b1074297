// Tests for the sharded streaming engine: the streaming/batch equivalence
// oracle (replaying an event file through the engine reproduces the batch
// OnlineGreedyMechanism byte for byte, for any shard count), shard-count
// determinism of both outcomes and merged telemetry counters, admission
// control under both policies, strict stream validation, drain semantics,
// and outcome retention (on or off, stats and counters are the same).
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/replay.hpp"
#include "serve/trace_plane.hpp"
#include "serve/verify.hpp"
#include "serve/wire.hpp"
#include "support/engine_feed.hpp"

namespace mcs::serve {
namespace {

using test_support::feed;

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
  feed(engine, events);
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
      feed(engine, events);
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
  const std::int64_t accepted = feed(engine, events);
  const std::int64_t shed = static_cast<std::int64_t>(events.size()) - accepted;
  engine.drain();  // shedding must never poison the engine

  const ServeStats& stats = engine.stats();
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.rejected_backpressure, shed);
  EXPECT_EQ(stats.processed, accepted);

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
  EXPECT_EQ(feed(engine, {slot_tick(9, Slot{1}), round_close(9)}), 2);
  engine.drain();
  EXPECT_EQ(engine.stats().orphaned_events, 2);
  EXPECT_EQ(engine.stats().rounds_corrupted, 0);
  EXPECT_TRUE(engine.take_outcomes().empty());
}

TEST(ServeEngine, RejectPolicyAbandonsACorruptedRound) {
  ServeConfig config;
  config.admission = ServeConfig::Admission::kReject;
  ServeEngine engine(config);
  // Slot 2 arrives while the round clock still sits at slot 1 -- the kind
  // of hole shedding a slot_tick leaves behind.
  feed(engine, {round_open(1, 3, Money::from_units(10)),
                task_arrived(1, Slot{2}, TaskId{0}), round_close(1)});
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_corrupted, 1);
  // The close after the corruption is an orphan of the dropped round.
  EXPECT_EQ(engine.stats().orphaned_events, 1);
  EXPECT_TRUE(engine.take_outcomes().empty());
}

TEST(ServeEngine, RoundLookupFollowsReusedInterleavedAndCorruptedRounds) {
  // The worker remembers the round its last event named. At one shard each
  // case hands the shard its whole stream in one batch, so the worker reads
  // it in one pickup; at three a batcher places each round, so a reused id
  // may run on two workers. Every completed round must still pay what the
  // batch mechanism pays for its scenario.
  const LoadGenConfig load = small_load(3);
  std::vector<model::Scenario> scenarios;
  for (std::int64_t r = 0; r < 3; ++r) {
    scenarios.push_back(loadgen_scenario(load, r));
  }
  const auto events_of_round = [&](std::int64_t round, std::size_t k) {
    return round_events(round, scenarios[k], scenarios[k].truthful_bids());
  };
  const auto matches = [&](const RoundOutcome& outcome, std::size_t k) {
    return diff_against_batch(scenarios[k], scenarios[k].truthful_bids(),
                              outcome, {}) == "";
  };
  for (const int shards : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << shards << " shard(s)");
    const auto serve = [shards](const std::vector<ServeEvent>& events,
                                ServeConfig::Admission admission) {
      ServeConfig config;
      config.shards = shards;
      config.admission = admission;
      ServeEngine engine(config);
      if (shards == 1) {
        EXPECT_EQ(engine.submit_batch(0, events.data(), events.size()),
                  SubmitStatus::kAccepted);
      } else {
        EXPECT_EQ(feed(engine, events),
                  static_cast<std::int64_t>(events.size()));
      }
      engine.drain();
      return std::make_pair(engine.stats(), engine.take_outcomes());
    };

    {
      SCOPED_TRACE("round 7 served twice, with other bids the second time");
      std::vector<ServeEvent> events = events_of_round(7, 0);
      const std::vector<ServeEvent> again = events_of_round(7, 1);
      events.insert(events.end(), again.begin(), again.end());
      const auto [stats, outcomes] =
          serve(events, ServeConfig::Admission::kBlock);
      EXPECT_EQ(stats.rounds_completed, 2);
      ASSERT_EQ(outcomes.size(), 2u);
      ASSERT_FALSE(matches(outcomes[0], 0) && matches(outcomes[0], 1))
          << "the two scenarios must pay differently";
      // The ids tie: the rounds come back in the order they completed. On
      // one shard that is the order they were served; on three the two run
      // on different workers, and RoundsReusingAnIdComeBackInCompletionOrder
      // pins the order.
      const bool in_order = matches(outcomes[0], 0) && matches(outcomes[1], 1);
      const bool swapped = matches(outcomes[0], 1) && matches(outcomes[1], 0);
      EXPECT_TRUE(in_order || (shards > 1 && swapped));
    }
    {
      SCOPED_TRACE("rounds 3 and 4 interleaved event by event");
      const std::vector<ServeEvent> a = events_of_round(3, 0);
      const std::vector<ServeEvent> b = events_of_round(4, 1);
      std::vector<ServeEvent> events;
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i < a.size()) events.push_back(a[i]);
        if (i < b.size()) events.push_back(b[i]);
      }
      const auto [stats, outcomes] =
          serve(events, ServeConfig::Admission::kBlock);
      ASSERT_EQ(outcomes.size(), 2u);
      EXPECT_EQ(outcomes[0].round, 3);
      EXPECT_TRUE(matches(outcomes[0], 0));
      EXPECT_EQ(outcomes[1].round, 4);
      EXPECT_TRUE(matches(outcomes[1], 1));
    }
    {
      SCOPED_TRACE("a corrupted round 7, then a clean round 7");
      // Slot 2's task arrives while the round clock sits at slot 1: the
      // round is dropped there, and its other events are orphans.
      const std::vector<ServeEvent> clean = events_of_round(7, 2);
      std::vector<ServeEvent> events = {
          round_open(7, 3, Money::from_units(10)),
          task_arrived(7, Slot{2}, TaskId{0}), slot_tick(7, Slot{1}),
          slot_tick(7, Slot{2}), round_close(7)};
      events.insert(events.end(), clean.begin(), clean.end());
      const auto [stats, outcomes] =
          serve(events, ServeConfig::Admission::kReject);
      EXPECT_EQ(stats.rounds_corrupted, 1);
      EXPECT_EQ(stats.orphaned_events, 3);
      EXPECT_EQ(stats.rounds_completed, 1);
      ASSERT_EQ(outcomes.size(), 1u);
      EXPECT_TRUE(matches(outcomes[0], 2));
    }
  }
}

TEST(ServeEngine, RoundsReusingAnIdComeBackInCompletionOrder) {
  // Round 7 runs first on shard 2, then again on shard 0. Outcomes listed
  // by shard would put shard 0's round first; the completion tickets put
  // them in the order they completed.
  const LoadGenConfig load = small_load(2);
  const model::Scenario first = loadgen_scenario(load, 0);
  const model::Scenario second = loadgen_scenario(load, 1);
  const std::vector<ServeEvent> a =
      round_events(7, first, first.truthful_bids());
  const std::vector<ServeEvent> b =
      round_events(7, second, second.truthful_bids());
  constexpr std::size_t kCapacity = 256;
  ASSERT_LE(a.size(), kCapacity);
  // A round of exactly kCapacity events fits shard 2's ring only once its
  // worker has released every slot, i.e. finished the first round 7.
  std::vector<ServeEvent> filler = {round_open(
      99, static_cast<Slot::rep_type>(kCapacity - 2), Money::from_units(10))};
  for (std::size_t t = 1; t + 2 <= kCapacity; ++t) {
    filler.push_back(slot_tick(99, Slot{static_cast<Slot::rep_type>(t)}));
  }
  filler.push_back(round_close(99));
  ASSERT_EQ(filler.size(), kCapacity);

  ServeConfig config;
  config.shards = 3;
  config.queue_capacity = kCapacity;
  ServeEngine engine(config);
  ASSERT_EQ(engine.submit_batch(2, a.data(), a.size()),
            SubmitStatus::kAccepted);
  ASSERT_EQ(engine.submit_batch(2, filler.data(), filler.size()),
            SubmitStatus::kAccepted);
  ASSERT_EQ(engine.submit_batch(0, b.data(), b.size()),
            SubmitStatus::kAccepted);
  engine.drain();
  const std::vector<RoundOutcome> outcomes = engine.take_outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].round, 7);
  EXPECT_EQ(diff_against_batch(first, first.truthful_bids(), outcomes[0], {}),
            "");
  EXPECT_EQ(outcomes[1].round, 7);
  EXPECT_EQ(
      diff_against_batch(second, second.truthful_bids(), outcomes[1], {}), "");
  EXPECT_EQ(outcomes[2].round, 99);
}

TEST(ServeEngine, RoundsInterleavedEventByEventMatchTheBatchMechanism) {
  // Twelve rounds open before any closes, each on the shard that was least
  // loaded at its open; one batcher keeps every later event on its round's
  // shard.
  const LoadGenConfig load = small_load(12);
  const std::vector<ServeEvent> in_order = events_of(load);
  std::vector<std::vector<ServeEvent>> rounds(
      static_cast<std::size_t>(load.rounds));
  for (const ServeEvent& event : in_order) {
    rounds[static_cast<std::size_t>(event.round)].push_back(event);
  }
  std::vector<ServeEvent> events;
  for (std::size_t i = 0; events.size() < in_order.size(); ++i) {
    for (const std::vector<ServeEvent>& round : rounds) {
      if (i < round.size()) events.push_back(round[i]);
    }
  }
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    ServeConfig config;
    config.shards = 3;
    config.batch_size = batch;
    const std::vector<RoundOutcome> outcomes = run_engine(events, config);
    ASSERT_EQ(static_cast<std::int64_t>(outcomes.size()), load.rounds);
    const VerifyReport report =
        verify_against_batch(load, outcomes, config.greedy);
    EXPECT_TRUE(report.clean()) << report.first_diff;
  }
}

// ------------------------------------------------- strict stream errors

TEST(ServeEngine, BlockPolicyFailsOnEventForUnopenedRound) {
  ServeConfig config;
  ServeEngine engine(config);
  feed(engine, {slot_tick(3, Slot{1})});
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnDuplicateRoundOpen) {
  // The second open of round 0 comes after round 1's: the batcher sends it
  // to round 0's shard, whose worker reports the duplicate.
  for (const int shards : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << shards << " shard(s)");
    ServeConfig config;
    config.shards = shards;
    ServeEngine engine(config);
    feed(engine, {round_open(0, 3, Money::from_units(10)),
                  round_open(1, 3, Money::from_units(10)),
                  round_open(0, 3, Money::from_units(10))});
    EXPECT_THROW(engine.drain(), InvalidArgumentError);
  }
}

TEST(ServeEngine, BlockPolicyFailsOnOutOfOrderSlot) {
  ServeConfig config;
  ServeEngine engine(config);
  feed(engine, {round_open(0, 4, Money::from_units(10)),
                slot_tick(0, Slot{2})});  // clock expects slot 1
  EXPECT_THROW(engine.drain(), InvalidArgumentError);
}

TEST(ServeEngine, BlockPolicyFailsOnAgentBiddingTwice) {
  // The first bid is turned away by the reserve; it still counts as the
  // agent's one bid of the round.
  ServeConfig config;
  config.greedy.reserve_price = Money::from_units(30);
  ServeEngine engine(config);
  const SlotInterval window = SlotInterval::of(1, 2);
  feed(engine,
       {round_open(0, 3, Money::from_units(50)),
        bid_submitted(0, PhoneId{4}, model::Bid{window, Money::from_units(40)}),
        bid_submitted(0, PhoneId{4},
                      model::Bid{window, Money::from_units(20)})});
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
      feed(engine,
           {round_open(0, 1, Money::from_units(50)),
            bid_submitted(0, PhoneId{std::numeric_limits<int>::max()}, bid),
            slot_tick(0, Slot{1}), round_close(0),
            round_open(1, 1, Money::from_units(50)),
            task_arrived(1, Slot{1}, TaskId{0}),
            bid_submitted(1, PhoneId{0}, bid), slot_tick(1, Slot{1}),
            round_close(1)});
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

TEST(ServeEngine, OutOfDomainValuesAreStreamErrors) {
  // Values the batch Scenario rejects -- a negative round value nu, a task
  // value of Money::max() or below zero -- fail the stream under kBlock
  // and are one corrupted round, beside a normal one that completes, under
  // kReject.
  const model::Bid bid{SlotInterval::of(1, 2), Money::from_units(3)};
  const auto craft = [](int which) -> std::vector<ServeEvent> {
    if (which == 0) return {round_open(0, 2, Money::from_units(-7))};
    const Money value = which == 1 ? Money::max() : Money::from_units(-7);
    return {round_open(0, 2, Money::from_units(10)),
            task_arrived(0, Slot{1}, TaskId{0}, value)};
  };
  for (int which = 0; which < 3; ++which) {
    for (const ServeConfig::Admission admission :
         {ServeConfig::Admission::kBlock, ServeConfig::Admission::kReject}) {
      SCOPED_TRACE(::testing::Message()
                   << "case " << which << ", admission "
                   << (admission == ServeConfig::Admission::kBlock
                           ? "block"
                           : "reject"));
      ServeConfig config;
      config.admission = admission;
      ServeEngine engine(config);
      std::vector<ServeEvent> events = craft(which);
      events.insert(
          events.end(),
          {bid_submitted(0, PhoneId{0}, bid), slot_tick(0, Slot{1}),
           slot_tick(0, Slot{2}), round_close(0),
           round_open(1, 2, Money::from_units(10)),
           task_arrived(1, Slot{1}, TaskId{0}),
           bid_submitted(1, PhoneId{0}, bid), slot_tick(1, Slot{1}),
           slot_tick(1, Slot{2}), round_close(1)});
      feed(engine, events);
      if (admission == ServeConfig::Admission::kBlock) {
        EXPECT_THROW(engine.drain(), InvalidArgumentError);
        continue;
      }
      engine.drain();
      EXPECT_EQ(engine.stats().rounds_corrupted, 1);
      EXPECT_EQ(engine.stats().rounds_completed, 1);
      const std::vector<RoundOutcome> outcomes = engine.take_outcomes();
      ASSERT_EQ(outcomes.size(), 1u);
      EXPECT_EQ(outcomes[0].round, 1);
      EXPECT_EQ(outcomes[0].total_paid, Money::from_units(10));
    }
  }
}

// ------------------------------------------------------ drain semantics

TEST(ServeEngine, DrainIsIdempotentAndStopsAdmission) {
  ServeConfig config;
  config.shards = 2;
  ServeEngine engine(config);
  feed(engine, {round_open(0, 1, Money::from_units(10)),
                slot_tick(0, Slot{1}), round_close(0)});
  engine.drain();
  engine.drain();  // no-op
  ShardBatcher late(engine);
  EXPECT_EQ(late.add(round_close(1)), SubmitStatus::kRejectedStopped);
  EXPECT_EQ(engine.stats().rounds_completed, 1);
}

TEST(ServeEngine, OpenRoundsAtShutdownAreAbandonedNotInvented) {
  ServeConfig config;
  ServeEngine engine(config);
  feed(engine, {round_open(0, 5, Money::from_units(10)),
                slot_tick(0, Slot{1})});  // never closed
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
  std::vector<ServeEvent> events;
  for (const std::int64_t round : {5, 3, 1, 0}) {
    events.insert(events.end(),
                  {round_open(round, 1, Money::from_units(10)),
                   slot_tick(round, Slot{1}), round_close(round)});
  }
  feed(engine, events);
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
  feed(engine, events);
  engine.drain();

  const ServeStats& stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(events.size()));
  EXPECT_EQ(stats.processed, stats.submitted);
  EXPECT_EQ(stats.rounds_completed, load.rounds);

  Money total;
  Money paid;  // summed over the dense payments take_outcome() built
  std::int64_t tasks = 0;
  for (const RoundOutcome& outcome : engine.take_outcomes()) {
    total += outcome.total_paid;
    tasks += outcome.tasks_announced;
    for (const Money payment : outcome.outcome.payments) paid += payment;
  }
  EXPECT_EQ(stats.total_paid, total);
  EXPECT_EQ(stats.total_paid, paid);
  EXPECT_EQ(stats.tasks_announced, tasks);
}

/// One engine run's stats and merged deterministic counters, and the
/// events its engine admitted.
struct CountedRun {
  ServeStats stats;
  std::map<std::string, std::int64_t> counters;
  std::vector<ServeEvent> admitted;
};

/// Serves `events` event by event through one batcher with a registry
/// installed. Unless `shed`, a full queue is waited out, so every event is
/// admitted.
CountedRun serve_counted(const std::vector<ServeEvent>& events,
                         const ServeConfig& config, bool shed) {
  CountedRun run;
  obs::MetricsRegistry registry;
  {
    const obs::ScopedRegistry guard(&registry);
    ServeEngine engine(config);
    ShardBatcher batcher(engine);
    for (const ServeEvent& event : events) {
      SubmitStatus status = batcher.add(event);
      while (!shed && status == SubmitStatus::kRejectedQueueFull) {
        std::this_thread::yield();
        status = batcher.add(event);
      }
      if (status == SubmitStatus::kAccepted) run.admitted.push_back(event);
    }
    engine.drain();
    run.stats = engine.stats();
  }
  run.counters = registry.snapshot().counters;
  return run;
}

/// Every ServeStats field the processed events fix. The queue high
/// watermark and rejected_backpressure (a waited-out submit counts its
/// refusals too) depend on scheduling, so both are left out.
void expect_same_stats(const ServeStats& a, const ServeStats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.rounds_abandoned, b.rounds_abandoned);
  EXPECT_EQ(a.orphaned_events, b.orphaned_events);
  EXPECT_EQ(a.rounds_corrupted, b.rounds_corrupted);
  EXPECT_EQ(a.tasks_announced, b.tasks_announced);
  EXPECT_EQ(a.bids_admitted, b.bids_admitted);
  EXPECT_EQ(a.bids_rejected_reserve, b.bids_rejected_reserve);
  EXPECT_EQ(a.total_paid, b.total_paid);
}

TEST(ServeEngine, RetentionChangesNoStatOrCounter) {
  const std::vector<ServeEvent> events = events_of(small_load(24));
  for (const int shards : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    ServeConfig config;
    config.shards = shards;
    config.retain_outcomes = true;
    const CountedRun kept = serve_counted(events, config, /*shed=*/false);
    config.retain_outcomes = false;
    const CountedRun dropped = serve_counted(events, config, /*shed=*/false);
    EXPECT_EQ(kept.stats.rounds_completed, 24);
    expect_same_stats(kept.stats, dropped.stats);
    EXPECT_EQ(kept.stats.rejected_backpressure, 0);
    EXPECT_EQ(dropped.stats.rejected_backpressure, 0);
    EXPECT_EQ(kept.counters, dropped.counters);

    // Which events a tiny kReject queue sheds depends on timing, so the
    // events one shedding run admitted are served again, waited out, with
    // retention flipped: the same processed stream must give the same
    // stats and counters.
    config.admission = ServeConfig::Admission::kReject;
    config.queue_capacity = 2;
    for (const bool retain : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "shedding with retention "
                                        << retain);
      config.retain_outcomes = retain;
      const CountedRun shedding = serve_counted(events, config, /*shed=*/true);
      config.retain_outcomes = !retain;
      const CountedRun again =
          serve_counted(shedding.admitted, config, /*shed=*/false);
      expect_same_stats(shedding.stats, again.stats);
      EXPECT_EQ(shedding.counters, again.counters);
    }
  }
}

TEST(ServeEngine, TakeOutcomesRequiresRetention) {
  ServeConfig config;
  config.retain_outcomes = false;
  ServeEngine engine(config);
  feed(engine, {round_open(0, 1, Money::from_units(10)),
                slot_tick(0, Slot{1}), round_close(0)});
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_completed, 1);
  EXPECT_THROW((void)engine.take_outcomes(), ContractViolation);
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
    feed(engine, events);
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

TEST(ServeConfigTest, QueueAndTraceRingCapsAreCheckedBeforeAllocating) {
  // Both are allocated up front, so each has an explicit upper bound; a
  // value above it is refused before the engine or plane allocates.
  ServeConfig at_cap;
  at_cap.queue_capacity = ServeConfig::kMaxQueueCapacity;
  EXPECT_NO_THROW(at_cap.validate());
  ServeConfig above_cap;
  above_cap.queue_capacity = ServeConfig::kMaxQueueCapacity + 1;
  EXPECT_THROW(above_cap.validate(), InvalidArgumentError);
  EXPECT_THROW((void)ServeEngine{above_cap}, InvalidArgumentError);

  TracePlaneConfig ring_at_cap;
  ring_at_cap.ring_capacity = TracePlaneConfig::kMaxRingCapacity;
  EXPECT_NO_THROW(ring_at_cap.validate());
  TracePlaneConfig ring_above_cap;
  ring_above_cap.ring_capacity = TracePlaneConfig::kMaxRingCapacity + 1;
  EXPECT_THROW(ring_above_cap.validate(), InvalidArgumentError);
  EXPECT_THROW((void)TracePlane{ring_above_cap}, InvalidArgumentError);
  TracePlaneConfig empty_ring;
  empty_ring.ring_capacity = 0;
  EXPECT_THROW((void)TracePlane{empty_ring}, InvalidArgumentError);
}

}  // namespace
}  // namespace mcs::serve
