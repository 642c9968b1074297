// GreedyCore's departure calendar: every step() reports the bids whose
// reported window ends in its slot, in admission order -- a reference sort
// of all admitted bids by (window end, handle) -- for short windows, for
// windows longer than the calendar's ring, and across a restart() at a
// fork slot. A round whose slot numbers span the whole int range must cost
// memory by its bids, never by its slot values.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "auction/greedy_core.hpp"
#include "common/rng.hpp"
#include "serve/event.hpp"
#include "serve/round_machine.hpp"
#include "support/alloc_counter.hpp"

namespace mcs::auction {
namespace {

using Handle = GreedyCore::Handle;

/// Steps a core through its slots, admitting random bids, and checks each
/// step's `departing` against the reference order.
class DepartureCheck {
 public:
  DepartureCheck(GreedyCore& core, Rng& rng) : core_(core), rng_(rng) {}

  /// Pools a bid [current slot - back, current slot + length - 1]; the
  /// reference records it under its window end.
  void admit(Slot::rep_type back, Slot::rep_type length) {
    const Slot::rep_type now = core_.current_slot();
    const model::Bid bid{SlotInterval::of(now - back, now + length - 1),
                         Money::from_micros(rng_.uniform_int(1, 1'000'000))};
    const Handle handle = core_.admit(next_id_++, bid);
    ends_.emplace_back(bid.window.end().value(), handle);
  }

  /// A window length: mostly short, a fifth of them beyond the ring.
  Slot::rep_type random_length() {
    constexpr Slot::rep_type kRing = GreedyCore::kCalendarSlots;
    return rng_.uniform_int(0, 4) == 0
               ? static_cast<Slot::rep_type>(rng_.uniform_int(kRing - 2,
                                                              3 * kRing))
               : static_cast<Slot::rep_type>(rng_.uniform_int(1, 6));
  }

  /// Steps `slots` slots with random arrivals and tasks.
  void run(int slots) {
    for (int k = 0; k < slots; ++k) {
      const int arrivals = static_cast<int>(rng_.uniform_int(0, 5));
      for (int a = 0; a < arrivals; ++a) admit(0, random_length());
      const int tasks = static_cast<int>(rng_.uniform_int(0, 3));
      for (int j = 0; j < tasks; ++j) {
        core_.add_task(
            GreedyCore::Task{TaskId{next_task_++}, Money::from_units(10)});
      }
      const GreedyCore::Step& step = core_.step();
      ASSERT_EQ(step.departing, expected(step.slot)) << "slot " << step.slot;
      departed_ += static_cast<std::int64_t>(step.departing.size());
    }
  }

  /// Forgets the reference (the core was restarted).
  void restart() {
    ends_.clear();
    next_task_ = 0;
  }

  [[nodiscard]] std::int64_t departed() const { return departed_; }

 private:
  /// The reference: admitted bids ending in `slot`, sorted by (end, handle).
  [[nodiscard]] std::vector<Handle> expected(Slot::rep_type slot) const {
    std::vector<std::pair<Slot::rep_type, Handle>> sorted = ends_;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Handle> due;
    for (const auto& [end, handle] : sorted) {
      if (end == slot) due.push_back(handle);
    }
    return due;
  }

  GreedyCore& core_;
  Rng& rng_;
  std::vector<std::pair<Slot::rep_type, Handle>> ends_;
  int next_id_{0};
  int next_task_{0};
  std::int64_t departed_{0};
};

TEST(GreedyCoreCalendar, DepartingMatchesTheReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    GreedyCore core;
    DepartureCheck check(core, rng);
    // 4 ring lengths, so long windows cross the ring several times.
    check.run(4 * GreedyCore::kCalendarSlots);
    EXPECT_GT(check.departed(), 0) << "seed " << seed;
  }
}

TEST(GreedyCoreCalendar, RestartAtAForkSlotStartsAnEmptyCalendar) {
  Rng rng(2014);
  GreedyCore core;
  DepartureCheck check(core, rng);
  check.run(100);  // leaves bids listed in the ring and in the far heap
  for (const Slot::rep_type fork : {7, 64, 65, 1000}) {
    core.restart(core.config(), fork);
    check.restart();
    // A probe's seed pool: bids that arrived before the fork and hold it,
    // some ending in it, some beyond the ring.
    for (int k = 0; k < 40; ++k) {
      check.admit(static_cast<Slot::rep_type>(rng.uniform_int(0, 5)),
                  check.random_length());
    }
    check.run(3 * GreedyCore::kCalendarSlots);
    EXPECT_EQ(core.current_slot(), fork + 3 * GreedyCore::kCalendarSlots);
  }
}

TEST(GreedyCoreCalendar, MemoryGrowsWithBidsNotSlotValues) {
  // A hostile round: 2^31 - 1 slots, bids whose ends lie far apart across
  // the whole range, a few slots stepped. A calendar indexed by slot value
  // would need gigabytes.
  constexpr Slot::rep_type kSlots = std::numeric_limits<Slot::rep_type>::max();
  constexpr int kBids = 4'000;
  constexpr std::int64_t kRound = 7;
  const auto serve_round = [&](bool far) {
    const std::uint64_t before = test::heap_bytes();
    serve::RoundMachine machine(
        serve::round_open(kRound, kSlots, Money::from_units(50)),
        OnlineGreedyConfig{});
    for (int agent = 0; agent < kBids; ++agent) {
      // Ends 1..3 for every tenth bid; the rest far apart (or near).
      const Slot::rep_type end =
          agent % 10 == 0 ? 1 + agent % 3
          : far ? kSlots - static_cast<Slot::rep_type>(agent) * 536'000
                : 4 + agent % 5;
      machine.apply(serve::bid_submitted(
          kRound, PhoneId{agent},
          model::Bid{SlotInterval::of(1, end),
                     Money::from_micros(1'000 + agent)}));
    }
    for (Slot::rep_type t = 1; t <= 3; ++t) {
      machine.apply(serve::task_arrived(kRound, Slot{t}, TaskId{t - 1}));
      machine.apply(serve::slot_tick(kRound, Slot{t}));
    }
    return test::heap_bytes() - before;
  };
  const std::uint64_t near_bytes = serve_round(false);
  const std::uint64_t far_bytes = serve_round(true);
  std::cout << "[ alloc ] " << kBids << " bids: " << near_bytes
            << " bytes with near ends, " << far_bytes
            << " bytes with ends across 2^31 slots\n";
  // Per bid: its entry, pool element, one-bid set share and departure
  // record, with vector doubling -- a few hundred bytes at most.
  EXPECT_LT(near_bytes, std::uint64_t{kBids} * 512);
  EXPECT_LT(far_bytes, std::uint64_t{kBids} * 512);
}

}  // namespace
}  // namespace mcs::auction
