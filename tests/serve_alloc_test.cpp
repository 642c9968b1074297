// Bid admission on the served path: heap allocations per admitted bid over
// seeded Table-I rounds, and a hostile round whose every bid lands at the
// front of the pool, which must stay O(log P) per bid and still match the
// batch mechanism exactly. Round recycling: a reset machine allocates only
// the buffers take_outcome() builds, serves every round exactly like a
// fresh one, and an engine shard serving hostile, weighted, corrupted and
// Table-I rounds back to back matches fresh machines and the batch
// mechanism. A non-retaining engine allocates nothing per round at steady
// state, and serves a round with a huge agent id in memory linear in its
// events under both admission policies. Also pins
// critical-value probes as allocation-free once the calling thread's probe
// core is warm, a canonical JSONL line of each kind as decoding
// without the heap, and a stream of all five kinds, JSONL and binary, as
// decoding without the heap once its first chunk is read.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "auction/counterfactual.hpp"
#include "auction/online_greedy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "model/scenario.hpp"
#include "model/workload.hpp"
#include "serve/econ_telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"
#include "serve/verify.hpp"
#include "serve/wire.hpp"
#include "support/alloc_counter.hpp"
#include "support/engine_feed.hpp"

namespace mcs::serve {
namespace {

TEST(ServeAlloc, HeapAllocationsPerAdmittedBidStayUnderHalf) {
  LoadGenConfig load;  // the paper's Table I operating point
  load.rounds = 200;
  load.seed = 2014;
  std::vector<ServeEvent> events;
  generate_events(load, [&](const ServeEvent& event) {
    events.push_back(event);
    return true;
  });

  std::int64_t admitted = 0;
  std::int64_t rounds = 0;
  const std::uint64_t before = test::heap_allocations();
  std::size_t i = 0;
  while (i < events.size()) {
    RoundMachine machine(events[i++], auction::OnlineGreedyConfig{});
    while (!machine.apply(events[i++])) {
    }
    const RoundOutcome outcome = machine.take_outcome();
    admitted += outcome.bids_admitted;
    ++rounds;
  }
  const std::uint64_t allocations = test::heap_allocations() - before;

  ASSERT_EQ(rounds, load.rounds);
  ASSERT_GT(admitted, 0);
  const double per_bid =
      static_cast<double>(allocations) / static_cast<double>(admitted);
  std::cout << "[ alloc ] " << allocations << " heap allocations over "
            << admitted << " admitted bids in " << rounds
            << " rounds: " << per_bid << " per bid\n";
  // Everything a round allocates counts: the machine, its core, the
  // outcome. A heap node per pooled bid or per admitted agent
  // alone would put this above 1.
  EXPECT_LT(per_bid, 0.5);
}

TEST(ServeAlloc, CanonicalJsonlLinesDecodeWithoutTheHeap) {
  const std::vector<ServeEvent> events = {
      round_open(3, 12, Money::from_double(30.5)),
      task_arrived(3, Slot{2}, TaskId{0}),
      task_arrived(3, Slot{2}, TaskId{1}, Money::from_double(0.75)),
      bid_submitted(3, PhoneId{7},
                    model::Bid{SlotInterval::of(2, 5), Money::from_micros(1)}),
      slot_tick(3, Slot{2}),
      round_close(3),
  };
  for (const ServeEvent& event : events) {
    const std::string line = encode_serve_event(event);
    const std::uint64_t before = test::heap_allocations();
    const std::optional<ServeEvent> decoded = decode_serve_line(line);
    const std::uint64_t allocations = test::heap_allocations() - before;
    EXPECT_EQ(allocations, 0u) << line;
    EXPECT_EQ(decoded, event) << line;
  }
  const std::string header = R"({"schema":"mcs.serve.v1"})";
  const std::uint64_t before = test::heap_allocations();
  const std::optional<ServeEvent> decoded = decode_serve_line(header);
  EXPECT_EQ(test::heap_allocations() - before, 0u);
  EXPECT_EQ(decoded, std::nullopt);
}

TEST(ServeAlloc, StreamDecoderAllocatesNothingAfterTheFirstChunk) {
  // A Table-I load with every other task weighted: all five kinds, each
  // line in the encoder's layout, spanning many 64 KiB reads.
  LoadGenConfig load;
  load.rounds = 120;
  load.seed = 2026;
  std::string jsonl;
  StreamWriter writer(WireFormat::kJsonl,
                      [&jsonl](std::string_view bytes) { jsonl += bytes; });
  const std::int64_t n = generate_events(load, [&](ServeEvent event) {
    if (event.kind == ServeEventKind::kTaskArrived && event.task.value() % 2) {
      event.task_value = Money::from_double(2.5);
    }
    writer.write(event);
    return true;
  });
  writer.flush();
  std::istringstream jsonl_in(jsonl);
  std::ostringstream binary_out;
  ASSERT_EQ(transcode_serve_stream(jsonl_in, binary_out, WireFormat::kBinary),
            n);
  const std::string binary = binary_out.str();

  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const std::pair<const char*, std::string_view> streams[] = {
      {"jsonl", jsonl}, {"binary", binary}};
  for (const auto& [name, bytes] : streams) {
    SCOPED_TRACE(name);
    ASSERT_GT(bytes.size(), 4 * kChunk);
    std::int64_t events = 0;
    const StreamDecoder::Sink sink = [&events](const ServeEvent&) {
      ++events;
    };
    StreamDecoder decoder;
    decoder.feed(bytes.substr(0, kChunk), sink);
    const std::uint64_t before = test::heap_bytes();
    for (std::size_t at = kChunk; at < bytes.size(); at += kChunk) {
      decoder.feed(bytes.substr(at, kChunk), sink);
    }
    decoder.finish(sink);
    EXPECT_EQ(test::heap_bytes() - before, 0u);
    EXPECT_EQ(events, n);
  }
}

TEST(ServeAlloc, HostileFrontInsertionRoundMatchesBatch) {
  // Every bid is cheaper than all before it and comes from a lower agent
  // id, so each one enters at the front of the (cost, id) order: a sorted
  // array pool would shift the whole pool per bid, ~10^11 bytes here.
  constexpr int kBids = 100'000;
  constexpr Slot::rep_type kSlots = 20;
  model::Scenario scenario;
  scenario.num_slots = kSlots;
  scenario.task_value = Money::from_units(1'000'000);
  for (int t = 1; t <= kSlots; ++t) {
    scenario.tasks.push_back(model::Task{TaskId{t - 1}, Slot{t}, {}});
  }
  for (int agent = 0; agent < kBids; ++agent) {
    scenario.phones.push_back(model::TrueProfile{
        SlotInterval::of(1, kSlots), Money::from_micros(1'000 * (agent + 1))});
  }
  const model::BidProfile bids = scenario.truthful_bids();

  constexpr std::int64_t kRound = 0;
  RoundMachine machine(round_open(kRound, kSlots, scenario.task_value),
                       auction::OnlineGreedyConfig{});
  for (Slot::rep_type t = 1; t <= kSlots; ++t) {
    machine.apply(task_arrived(kRound, Slot{t}, TaskId{t - 1}));
    if (t == 1) {
      for (int agent = kBids - 1; agent >= 0; --agent) {
        machine.apply(bid_submitted(kRound, PhoneId{agent},
                                    bids[static_cast<std::size_t>(agent)]));
      }
    }
    machine.apply(slot_tick(kRound, Slot{t}));
  }
  ASSERT_TRUE(machine.apply(round_close(kRound)));
  const RoundOutcome outcome = machine.take_outcome();

  EXPECT_EQ(outcome.bids_admitted, kBids);
  EXPECT_EQ(diff_against_batch(scenario, bids, outcome,
                               auction::OnlineGreedyConfig{}),
            "");
  // The kSlots cheapest agents win, one per slot, cheapest first.
  for (int t = 0; t < kSlots; ++t) {
    EXPECT_EQ(outcome.outcome.allocation.phone_for(TaskId{t}),
              std::optional(PhoneId{t}));
  }
}

/// A round as served events, with the scenario and bids the batch
/// mechanism runs it on.
struct ServedRound {
  model::Scenario scenario;
  model::BidProfile bids;
  std::vector<ServeEvent> events;
};

/// A Table-I round (loadgen's scenario for (2014, round)).
ServedRound table1_round(std::int64_t round) {
  LoadGenConfig load;
  load.seed = 2014;
  ServedRound served;
  served.scenario = loadgen_scenario(load, round);
  served.bids = served.scenario.truthful_bids();
  served.events = round_events(round, served.scenario, served.bids);
  return served;
}

/// A Table-I round whose tasks carry their own values (weighted queries).
ServedRound weighted_round(std::int64_t round) {
  ServedRound served = table1_round(round);
  for (model::Task& task : served.scenario.tasks) {
    task.value = Money::from_units(10 + 20 * (task.id.value() % 4));
  }
  served.events = round_events(round, served.scenario, served.bids);
  return served;
}

/// HostileFrontInsertionRoundMatchesBatch's round: 100k bids in slot 1,
/// each cheaper than all before it and from a lower agent id.
ServedRound hostile_round(std::int64_t round) {
  constexpr int kBids = 100'000;
  constexpr Slot::rep_type kSlots = 20;
  ServedRound served;
  served.scenario.num_slots = kSlots;
  served.scenario.task_value = Money::from_units(1'000'000);
  for (int t = 1; t <= kSlots; ++t) {
    served.scenario.tasks.push_back(model::Task{TaskId{t - 1}, Slot{t}, {}});
  }
  for (int agent = 0; agent < kBids; ++agent) {
    served.scenario.phones.push_back(model::TrueProfile{
        SlotInterval::of(1, kSlots), Money::from_micros(1'000 * (agent + 1))});
  }
  served.bids = served.scenario.truthful_bids();
  served.events.push_back(
      round_open(round, kSlots, served.scenario.task_value));
  for (Slot::rep_type t = 1; t <= kSlots; ++t) {
    served.events.push_back(task_arrived(round, Slot{t}, TaskId{t - 1}));
    if (t == 1) {
      for (int agent = kBids - 1; agent >= 0; --agent) {
        served.events.push_back(bid_submitted(
            round, PhoneId{agent}, served.bids[static_cast<std::size_t>(agent)]));
      }
    }
    served.events.push_back(slot_tick(round, Slot{t}));
  }
  served.events.push_back(round_close(round));
  return served;
}

/// A Table-I round with its slot-10 tick missing: the event after the
/// hole names a slot the round is not in, a stream error.
ServedRound corrupted_round(std::int64_t round) {
  ServedRound served = table1_round(round);
  std::erase_if(served.events, [](const ServeEvent& event) {
    return event.kind == ServeEventKind::kSlotTick && event.slot == Slot{10};
  });
  return served;
}

/// Feeds `events` (one whole round) to `machine`, already opened on the
/// first of them.
RoundOutcome finish_round(RoundMachine& machine,
                          const std::vector<ServeEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (machine.apply(events[i])) break;
  }
  return machine.take_outcome();
}

void expect_same_outcome(const RoundOutcome& got, const RoundOutcome& want) {
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.outcome.payments, want.outcome.payments);
  EXPECT_EQ(got.total_paid, want.total_paid);
  EXPECT_EQ(got.tasks_announced, want.tasks_announced);
  EXPECT_EQ(got.bids_admitted, want.bids_admitted);
  EXPECT_EQ(got.bids_rejected, want.bids_rejected);
  EXPECT_EQ(got.events_consumed, want.events_consumed);
  const auction::Allocation& a = got.outcome.allocation;
  const auction::Allocation& b = want.outcome.allocation;
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.phone_count(), b.phone_count());
  for (int task = 0; task < a.task_count(); ++task) {
    EXPECT_EQ(a.phone_for(TaskId{task}), b.phone_for(TaskId{task}))
        << "round " << got.round << " task " << task;
  }
}

/// The round through a machine of its own.
RoundOutcome fresh_outcome(const ServedRound& served,
                           const auction::OnlineGreedyConfig& config) {
  RoundMachine machine(served.events.front(), config);
  return finish_round(machine, served.events);
}

TEST(ServeAlloc, RecycledMachineAllocatesOnlyItsOutcomeBuffers) {
  LoadGenConfig load;  // the paper's Table I operating point
  load.rounds = 200;
  load.seed = 2014;
  std::vector<std::vector<ServeEvent>> rounds;
  generate_events(load, [&](const ServeEvent& event) {
    if (event.kind == ServeEventKind::kRoundOpen) rounds.emplace_back();
    rounds.back().push_back(event);
    return true;
  });
  RoundMachine machine(rounds.front().front(), auction::OnlineGreedyConfig{});
  const auto serve_all = [&] {
    for (const std::vector<ServeEvent>& events : rounds) {
      machine.reset(events.front());
      (void)finish_round(machine, events);
    }
  };
  serve_all();  // warm-up: the buffers grow to the largest round's needs
  const std::uint64_t before = test::heap_allocations();
  serve_all();
  const std::uint64_t allocations = test::heap_allocations() - before;
  const auto round_count = static_cast<std::uint64_t>(rounds.size());
  std::cout << "[ alloc ] " << allocations << " heap allocations over "
            << round_count << " recycled rounds: "
            << static_cast<double>(allocations) /
                   static_cast<double>(round_count)
            << " per round\n";
  // The dense outcome's own buffers, which take_outcome() builds: the
  // allocation's three per-task/per-phone vectors and the payments.
  EXPECT_LE(allocations, 4 * round_count);
}

/// Heap allocations and bytes one non-retaining, econ-off engine makes from
/// its construction through drain() while serving `events`.
struct EngineHeap {
  std::uint64_t allocations{0};
  std::uint64_t bytes{0};
  ServeStats stats;
};

EngineHeap serve_without_retention(const std::vector<ServeEvent>& events,
                                   ServeConfig::Admission admission,
                                   EconTelemetry* econ = nullptr) {
  ServeConfig config;
  config.retain_outcomes = false;
  config.admission = admission;
  config.econ = econ;
  EngineHeap heap;
  const std::uint64_t allocations = test::heap_allocations();
  const std::uint64_t bytes = test::heap_bytes();
  ServeEngine engine(config);
  // A kReject engine waits out a full queue too: nothing is shed.
  test_support::feed(engine, events, test_support::OnFull::kWait);
  engine.drain();
  heap.allocations = test::heap_allocations() - allocations;
  heap.bytes = test::heap_bytes() - bytes;
  heap.stats = engine.stats();
  return heap;
}

TEST(ServeAlloc, NonRetainingEngineAllocatesNothingPerRound) {
  const auto table1_events = [](std::int64_t rounds) {
    LoadGenConfig load;  // the paper's Table I operating point
    load.rounds = rounds;
    load.seed = 2014;
    std::vector<ServeEvent> events;
    generate_events(load, [&](const ServeEvent& event) {
      events.push_back(event);
      return true;
    });
    return events;
  };
  // One shard: its worker serves every round on one recycled machine.
  const EngineHeap two_hundred = serve_without_retention(
      table1_events(200), ServeConfig::Admission::kBlock);
  const EngineHeap four_hundred = serve_without_retention(
      table1_events(400), ServeConfig::Admission::kBlock);
  ASSERT_EQ(two_hundred.stats.rounds_completed, 200);
  ASSERT_EQ(four_hundred.stats.rounds_completed, 400);
  std::cout << "[ alloc ] a non-retaining engine made "
            << two_hundred.allocations << " heap allocations over 200 rounds, "
            << four_hundred.allocations << " over 400\n";
  // The engine, its ring and the recycled machine's buffers; the second
  // 200 rounds add nothing.
  EXPECT_EQ(four_hundred.allocations, two_hundred.allocations);
}

TEST(ServeAlloc, BatcherServesSequentialRoundsWithoutGrowingItsHeap) {
  // A batcher's table of open rounds reuses a closed round's node, and a
  // non-retaining shard reuses a retired round's machine, so after the
  // first rounds nothing on either side of the rings allocates. Rings of
  // 16 events keep the producer at most a few rounds ahead, so every
  // worker has served its first round before the count starts.
  const model::Bid bid{SlotInterval::of(1, 1), Money::from_units(5)};
  ServeConfig config;
  config.shards = 3;
  config.queue_capacity = 16;
  config.retain_outcomes = false;
  ServeEngine engine(config);
  ShardBatcher batcher(engine);
  const auto serve = [&](std::int64_t from, std::int64_t to) {
    for (std::int64_t round = from; round < to; ++round) {
      const std::array<ServeEvent, 5> events = {
          round_open(round, 1, Money::from_units(50)),
          task_arrived(round, Slot{1}, TaskId{0}),
          bid_submitted(round, PhoneId{0}, bid), slot_tick(round, Slot{1}),
          round_close(round)};
      for (const ServeEvent& event : events) {
        ASSERT_EQ(batcher.add(event), SubmitStatus::kAccepted);
      }
    }
  };
  serve(0, 100);
  const std::uint64_t before = test::heap_bytes();
  serve(100, 10'100);
  const std::uint64_t grown = test::heap_bytes() - before;
  ASSERT_EQ(batcher.flush(), SubmitStatus::kAccepted);
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_completed, 10'100);
  EXPECT_EQ(grown, 0u);
}

TEST(ServeAlloc, HugeAgentIdServesInMemoryLinearInItsEvents) {
  // A bid from agent 2^30 - 1: a dense outcome's two per-phone vectors
  // would take 16 GB. A non-retaining engine never builds one: with the
  // econ plane off nothing reads it, and with it on the round's capture is
  // incomplete (its agent ids are not 0..n-1), so the plane counts the
  // round skipped without an outcome.
  const model::Bid bid{SlotInterval::of(1, 1), Money::from_units(5)};
  const std::vector<ServeEvent> events = {
      round_open(0, 1, Money::from_units(50)),
      task_arrived(0, Slot{1}, TaskId{0}),
      bid_submitted(0, PhoneId{1073741823}, bid),
      slot_tick(0, Slot{1}),
      round_close(0),
  };
  for (const ServeConfig::Admission admission :
       {ServeConfig::Admission::kBlock, ServeConfig::Admission::kReject}) {
    const EngineHeap heap = serve_without_retention(events, admission);
    std::cout << "[ alloc ] a huge-agent-id round took " << heap.bytes
              << " heap bytes, the engine's ring included\n";
    EXPECT_EQ(heap.stats.rounds_completed, 1);
    EXPECT_EQ(heap.stats.rounds_corrupted, 0);
    EXPECT_EQ(heap.stats.bids_admitted, 1);
    EXPECT_EQ(heap.stats.total_paid, Money::from_units(50));
    EXPECT_LT(heap.bytes, std::uint64_t{1} << 20);

    EconTelemetry econ;
    const EngineHeap audited =
        serve_without_retention(events, admission, &econ);
    std::cout << "[ alloc ] with the econ plane on it took " << audited.bytes
              << " heap bytes\n";
    EXPECT_EQ(audited.stats.rounds_completed, 1);
    EXPECT_EQ(audited.stats.rounds_corrupted, 0);
    EXPECT_EQ(econ.take_snapshot().cumulative.rounds_skipped, 1);
    EXPECT_LT(audited.bytes, std::uint64_t{1} << 20);
  }
}

TEST(ServeAlloc, SparesKeepNoHostileRoundsBuffers) {
  const ServedRound hostile = hostile_round(0);
  RoundMachine machine(hostile.events.front(), auction::OnlineGreedyConfig{});
  (void)finish_round(machine, hostile.events);
  // The engine frees this machine instead of keeping it as a spare, so no
  // later round clears its 100k-bid buffers.
  EXPECT_GT(machine.retained_bytes(), ServeEngine::kMaxSpareBytes);

  // A machine recycled over the paper's largest rounds stays a spare.
  LoadGenConfig large;
  large.rounds = 20;
  large.workload.num_slots = 80;
  large.workload.phone_arrival_rate = 8.0;
  std::optional<RoundMachine> recycled;
  generate_events(large, [&](const ServeEvent& event) {
    if (event.kind == ServeEventKind::kRoundOpen) {
      if (recycled) {
        recycled->reset(event);
      } else {
        recycled.emplace(event, auction::OnlineGreedyConfig{});
      }
    } else {
      (void)recycled->apply(event);
    }
    return true;
  });
  std::cout << "[ alloc ] a machine recycled over m=80, lambda=8 rounds "
            << "retains " << recycled->retained_bytes() << " bytes\n";
  EXPECT_LE(recycled->retained_bytes(), ServeEngine::kMaxSpareBytes);
}

TEST(RoundRecycling, AResetMachineServesLikeAFreshOne) {
  auction::OnlineGreedyConfig config;
  config.reserve_price = Money::from_units(40);  // some bids turned away
  const std::vector<ServedRound> rounds = {
      hostile_round(0),  weighted_round(1), corrupted_round(2),
      table1_round(3),   table1_round(4),   weighted_round(5),
      table1_round(6)};
  RoundMachine machine(rounds.front().events.front(), config,
                       /*capture=*/true);
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const ServedRound& served = rounds[k];
    machine.reset(served.events.front());
    if (k == 2) {
      EXPECT_THROW((void)finish_round(machine, served.events),
                   InvalidArgumentError);
      continue;
    }
    const RoundOutcome outcome = finish_round(machine, served.events);
    EXPECT_EQ(diff_against_batch(served.scenario, served.bids, outcome,
                                 config),
              "")
        << "round " << k;
    RoundMachine fresh(served.events.front(), config, /*capture=*/true);
    expect_same_outcome(outcome, finish_round(fresh, served.events));
    // The capture the econ plane audits starts empty too.
    ASSERT_TRUE(machine.capture_complete());
    const CapturedRound got = machine.take_captured();
    const CapturedRound want = fresh.take_captured();
    EXPECT_EQ(got.bids, want.bids);
    EXPECT_EQ(got.scenario.tasks, want.scenario.tasks);
    ASSERT_EQ(got.slots.size(), want.slots.size());
    for (std::size_t t = 0; t < got.slots.size(); ++t) {
      EXPECT_EQ(got.slots[t].winners, want.slots[t].winners);
      EXPECT_EQ(got.slots[t].unserved, want.slots[t].unserved);
      EXPECT_EQ(got.slots[t].runner_up, want.slots[t].runner_up);
    }
  }
}

TEST(RoundRecycling, OneShardServesHostileWeightedCorruptedAndTableIRounds) {
  std::vector<ServedRound> rounds;
  rounds.push_back(hostile_round(0));
  rounds.push_back(weighted_round(1));
  rounds.push_back(corrupted_round(2));
  for (std::int64_t round = 3; round < 12; ++round) {
    rounds.push_back(table1_round(round));
  }
  ServeConfig config;
  config.shards = 1;  // every round on the one shard, back to back
  config.admission = ServeConfig::Admission::kReject;
  ServeEngine engine(config);
  std::vector<ServeEvent> events;
  for (const ServedRound& served : rounds) {
    events.insert(events.end(), served.events.begin(), served.events.end());
  }
  // Shedding would punch holes; wait for room instead.
  test_support::feed(engine, events, test_support::OnFull::kWait);
  engine.drain();
  EXPECT_EQ(engine.stats().rounds_corrupted, 1);
  const std::vector<RoundOutcome> outcomes = engine.take_outcomes();
  ASSERT_EQ(outcomes.size(), rounds.size() - 1);
  for (const RoundOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.round, 2);
    const ServedRound& served = rounds[static_cast<std::size_t>(outcome.round)];
    EXPECT_EQ(diff_against_batch(served.scenario, served.bids, outcome,
                                 config.greedy),
              "")
        << "round " << outcome.round;
    expect_same_outcome(outcome, fresh_outcome(served, config.greedy));
  }
}

TEST(ProbeAlloc, WarmCriticalValueProbesAllocateNothing) {
  Rng rng(2014);
  const model::Scenario scenario =
      model::generate_scenario(model::WorkloadConfig{}, rng);  // Table I
  const model::BidProfile bids = scenario.truthful_bids();
  const auction::OnlineGreedyConfig config;
  const auction::Allocation factual =
      auction::OnlineGreedyMechanism(config).run(scenario, bids).allocation;
  const std::vector<PhoneId> winners = factual.winners();
  ASSERT_FALSE(winners.empty());
  const auction::CounterfactualEngine engine(scenario, bids, config, factual);

  // Probe costs sweep [0, 2 nu): low ones win at the fork, high ones walk
  // the bid's whole window. A losing probe per winner warms the thread's
  // probe core up to every fork's size.
  const Money top = scenario.task_value + scenario.task_value;
  for (const PhoneId winner : winners) {
    (void)engine.wins_with_cost(winner, top);
  }
  constexpr int kProbesPerWinner = 40;
  std::int64_t probes = 0;
  std::int64_t wins = 0;
  const std::uint64_t before = test::heap_allocations();
  for (const PhoneId winner : winners) {
    for (int k = 0; k < kProbesPerWinner; ++k) {
      const Money cost =
          Money::from_micros(top.micros() / kProbesPerWinner * k);
      wins += engine.wins_with_cost(winner, cost) ? 1 : 0;
      ++probes;
    }
  }
  const std::uint64_t allocations = test::heap_allocations() - before;

  ASSERT_GT(wins, 0);
  ASSERT_LT(wins, probes);
  const double per_probe =
      static_cast<double>(allocations) / static_cast<double>(probes);
  std::cout << "[ alloc ] " << allocations << " heap allocations over "
            << probes << " probes of " << winners.size()
            << " winners: " << per_probe << " per probe\n";
  // A probe restarts the thread's core and seeds it from the factual slot
  // pools; a pool copy or a heap node per pooled bid would put this well
  // above 1.
  EXPECT_LT(per_probe, 0.05);
}

}  // namespace
}  // namespace mcs::serve
