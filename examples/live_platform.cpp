// The platform as it would actually run: a live, slot-by-slot market.
//
// This example drives the slot-steppable auction::GreedyCore directly (no
// batch mechanism, beyond using a Scenario as the script of arrivals):
// tasks are announced as queries come in, phones bid the moment they join,
// and the console shows the protocol transcript -- including payments
// landing exactly in each winner's reported departure slot, the first slot
// GreedyCore::settle accepts it in. It is the Fig. 1/2 message flow of the
// paper, executable; serve::RoundMachine runs the same loop on a streamed
// round.
#include <iostream>
#include <string_view>

#include "auction/greedy_core.hpp"
#include "io/cli.hpp"
#include "model/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  using auction::GreedyCore;

  io::CliParser cli(
      "Replays the paper's Fig. 4 round through the live slot-by-slot "
      "platform and prints the full protocol transcript.");
  if (!cli.parse(argc, argv)) return 0;

  const model::Scenario scenario = model::fig4_scenario();
  const model::BidProfile bids = scenario.truthful_bids();
  std::cout << "Live round: " << scenario.task_count() << " sensing queries, "
            << scenario.phone_count() << " smartphones, "
            << scenario.num_slots << " slots.\n"
            << "(paper Fig. 4 instance; phone ids below are 0-based)\n\n";

  // One transcript line; phone and task -1 when the message names none.
  Slot::rep_type section = 0;
  const auto say = [&](Slot::rep_type t, std::string_view what, int phone,
                       int task, Money amount) {
    if (t != section) {
      section = t;
      std::cout << "--- slot " << t << " ---\n";
    }
    std::cout << "  slot " << t << ": " << what;
    if (phone >= 0) std::cout << " phone=" << phone;
    if (task >= 0) std::cout << " task=" << task;
    if (!amount.is_zero()) std::cout << " amount=" << amount;
    std::cout << '\n';
  };

  GreedyCore core;
  Money total_paid;
  std::size_t next_task = 0;
  for (Slot::rep_type t = 1; t <= scenario.num_slots; ++t) {
    // Sensing queries that arrived this slot become task announcements.
    for (; next_task < scenario.tasks.size() &&
           scenario.tasks[next_task].slot.value() == t;
         ++next_task) {
      const TaskId id = scenario.tasks[next_task].id;
      const Money value = scenario.value_of(id);
      core.add_task(GreedyCore::Task{id, value});
      say(t, "task-announced", -1, id.value(), value);
    }
    // Phones whose reported arrival is this slot join and bid.
    for (int i = 0; i < scenario.phone_count(); ++i) {
      const model::Bid& bid = bids[static_cast<std::size_t>(i)];
      if (bid.window.begin().value() != t || !core.screen(i, bid)) continue;
      (void)core.admit(i, bid);
      say(t, "bid-submitted", i, -1, bid.claimed_cost);
    }

    // Algorithm 1 assigns the slot's tasks; each sensing report comes back
    // before the slot ends.
    const GreedyCore::Step& step = core.step();
    for (const GreedyCore::Assignment& assignment : step.assignments) {
      const int phone = core.entry(assignment.winner).id;
      say(t, "task-assigned", phone, assignment.task.id.value(), Money{});
      say(t, "sensing-reported", phone, assignment.task.id.value(), Money{});
    }
    for (const GreedyCore::Task& task : step.unserved) {
      say(t, "task-unserved", -1, task.id.value(), Money{});
    }
    // Algorithm 2 pays each winner departing this slot; losers leave
    // unpaid.
    for (const GreedyCore::Handle handle : step.departing) {
      const GreedyCore::Entry& leaving = core.entry(handle);
      if (leaving.win_slot == 0) continue;
      const Money payment = core.settle(handle).payment;
      total_paid += payment;
      say(t, "payment-issued", leaving.id, -1, payment);
    }
    for (const GreedyCore::Handle handle : step.departing) {
      const GreedyCore::Entry& leaving = core.entry(handle);
      if (leaving.win_slot == 0) say(t, "departed", leaving.id, -1, Money{});
    }
  }

  std::cout << "\nEnd of round. Total paid: " << total_paid
            << " (the batch mechanism computes the identical outcome; see "
               "tests/platform_test.cpp for the equivalence proof-by-test).\n";
  return 0;
}
