// Bid admission on the served path: heap allocations per admitted bid over
// seeded Table-I rounds, and a hostile round whose every bid lands at the
// front of the pool, which must stay O(log P) per bid and still match the
// batch mechanism exactly. Also pins critical-value probes as
// allocation-free once the calling thread's probe core is warm, and a
// canonical JSONL line of each kind as decoding without the heap.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "auction/counterfactual.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/scenario.hpp"
#include "model/workload.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"
#include "serve/verify.hpp"
#include "support/alloc_counter.hpp"

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
