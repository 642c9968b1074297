// Equivalence suite for Algorithm 2's displacement walk and the
// shared-prefix probe engine.
//
// The walk's claim is exactness, not approximation: settling each winner
// from the factual run's slot records must produce *Money-equal* payments,
// and the same setter and scarcity provenance, as re-running Algorithm 1
// without the winner (the full-replay oracle, support/full_replay.hpp), on
// every configuration corner -- reserve prices, profitable-only
// allocation, weighted tasks, supply scarcity, misreports and cost ties --
// through both the batch mechanism and a served round (RoundMachine). Probes
// forked from the factual allocation must match full re-runs too, in every
// config corner.
#include "auction/counterfactual.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "auction/critical_value.hpp"
#include "auction/online_greedy.hpp"
#include "common/rng.hpp"
#include "model/paper_examples.hpp"
#include "model/strategy.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "support/full_replay.hpp"
#include "support/generators.hpp"
#include "support/served_round.hpp"

namespace mcs::auction {
namespace {

using model::Scenario;

/// Every configuration corner the payment derivation branches on.
std::vector<std::pair<std::string, OnlineGreedyConfig>> config_families() {
  std::vector<std::pair<std::string, OnlineGreedyConfig>> families;
  families.emplace_back("paper_default", OnlineGreedyConfig{});

  OnlineGreedyConfig reserve;
  reserve.reserve_price = Money::from_units(20);
  families.emplace_back("reserve_20", reserve);

  OnlineGreedyConfig profitable;
  profitable.allocate_only_profitable = true;
  families.emplace_back("profitable_only", profitable);

  OnlineGreedyConfig own_bid;
  own_bid.scarce_payment = OnlineGreedyConfig::ScarcePayment::kOwnBid;
  families.emplace_back("scarce_own_bid", own_bid);

  OnlineGreedyConfig both;
  both.allocate_only_profitable = true;
  both.reserve_price = Money::from_units(25);
  families.emplace_back("reserve_and_profitable", both);
  return families;
}

/// Weighted-query extension: per-task values around the cost range, so
/// profitable-only decisions and scarce caps differ task by task.
Scenario weighted_tasks(Rng& rng) {
  const Slot::rep_type slots = 6;
  model::ScenarioBuilder builder(slots);
  builder.value(30);
  const int phones = static_cast<int>(rng.uniform_int(2, 9));
  for (int i = 0; i < phones; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, slots));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, slots));
    builder.phone(a, d, rng.uniform_int(1, 40));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 7));
  for (int k = 0; k < tasks; ++k) {
    builder.valued_task(static_cast<Slot::rep_type>(rng.uniform_int(1, slots)),
                        rng.uniform_int(1, 80));
  }
  return builder.build();
}

using Value = obs::Event::Value;

/// The value of `key` in a recorded event, if the record carries it.
std::optional<Value> attr(const obs::Event& event, const std::string& key) {
  for (const auto& [name, value] : event.attrs) {
    if (name == key) return value;
  }
  return std::nullopt;
}

std::optional<Value> int_attr(bool present, std::int64_t value) {
  return present ? std::optional<Value>(value) : std::nullopt;
}

/// Runs `run` with an event log installed and returns its
/// payment_derivation records.
template <typename Run>
std::vector<obs::Event> payment_derivations(Run&& run) {
  obs::RingEventSink sink(1 << 14);
  {
    obs::EventLog log(&sink);
    const obs::ScopedEventLog install(&log);
    run();
  }
  EXPECT_LT(sink.total_appended(), std::uint64_t{1} << 14) << "ring wrapped";
  std::vector<obs::Event> derivations;
  for (const obs::Event& event : sink.events()) {
    if (event.type == "payment_derivation") derivations.push_back(event);
  }
  return derivations;
}

/// Checks a run's payment_derivation records against the oracle, winner
/// by winner.
void expect_records_match(const std::vector<obs::Event>& records,
                          const test_support::FullReplay& oracle,
                          const std::string& label) {
  ASSERT_EQ(records.size(), oracle.winners.size()) << label;
  std::map<int, const obs::Event*> by_phone;
  for (const obs::Event& record : records) by_phone[record.phone] = &record;
  for (const test_support::ReplayedSettlement& winner : oracle.winners) {
    const std::string where =
        label + ": phone " + std::to_string(winner.phone.value());
    const auto found = by_phone.find(winner.phone.value());
    ASSERT_NE(found, by_phone.end()) << where;
    const obs::Event& record = *found->second;
    const Settlement& expected = winner.settlement;
    EXPECT_EQ(record.slot, winner.win_slot.value()) << where;
    EXPECT_EQ(attr(record, "payment"), Value(expected.payment)) << where;
    const bool setter = expected.setter_phone.has_value();
    EXPECT_EQ(attr(record, "set_by_phone"),
              int_attr(setter, setter ? expected.setter_phone->value() : 0))
        << where;
    EXPECT_EQ(attr(record, "set_in_slot"),
              int_attr(setter, expected.setter_slot.value()))
        << where;
    EXPECT_EQ(attr(record, "scarce"), Value(expected.scarce)) << where;
    EXPECT_EQ(attr(record, "scarce_cap"),
              expected.scarce ? std::optional<Value>(expected.scarce_cap)
                              : std::nullopt)
        << where;
    EXPECT_EQ(attr(record, "scarce_applied"), Value(expected.scarce_applied))
        << where;
  }
}

/// Core oracle: the walk must agree with the full-replay oracle through
/// the batch mechanism and through a RoundMachine fed the round's events
/// -- payments, allocation, and every winner's setter and scarcity
/// provenance.
void expect_walk_matches_oracle(const Scenario& scenario,
                                const model::BidProfile& bids,
                                const OnlineGreedyConfig& config,
                                const std::string& label) {
  const test_support::FullReplay oracle =
      test_support::full_replay(scenario, bids, config);
  const auto expect_matches = [&](const Outcome& outcome,
                                  const std::vector<obs::Event>& records,
                                  const std::string& driver) {
    const std::string where = label + " (" + driver + ")";
    EXPECT_EQ(outcome.payments, oracle.payments) << where;
    for (int k = 0; k < scenario.task_count(); ++k) {
      EXPECT_EQ(outcome.allocation.phone_for(TaskId{k}),
                oracle.allocation.phone_for(TaskId{k}))
          << where << ": task " << k;
    }
    expect_records_match(records, oracle, where);
  };

  Outcome batch;
  const std::vector<obs::Event> batch_records = payment_derivations(
      [&] { batch = OnlineGreedyMechanism(config).run(scenario, bids); });
  expect_matches(batch, batch_records, "batch");
  Outcome served;
  const std::vector<obs::Event> served_records = payment_derivations([&] {
    served = test_support::serve_round(scenario, bids, config).outcome;
  });
  expect_matches(served, served_records, "served");
}

// ------------------------------------------------ walk == naive property

TEST(PaymentEquivalence, SharedPrefixEqualsFullReplayAcrossConfigCorners) {
  // 5 config families x 2 supply regimes x 20 scenarios = 200 cases,
  // plus 40 weighted-task cases below: every payment Money-equal, every
  // provenance field equal.
  Rng rng(20260807);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 20; ++i) {
      const Scenario scarce = test_support::windowed(rng);
      expect_walk_matches_oracle(scarce, scarce.truthful_bids(), config,
                                 name + "/windowed#" + std::to_string(i));
      const Scenario free = test_support::scarcity_free(rng);
      expect_walk_matches_oracle(free, free.truthful_bids(), config,
                                 name + "/scarcity_free#" + std::to_string(i));
    }
  }
}

TEST(PaymentEquivalence, SharedPrefixEqualsFullReplayOnWeightedTasks) {
  Rng rng(424242);
  for (const auto& [name, config] : config_families()) {
    for (int i = 0; i < 8; ++i) {
      const Scenario scenario = weighted_tasks(rng);
      expect_walk_matches_oracle(scenario, scenario.truthful_bids(), config,
                                 name + "/weighted#" + std::to_string(i));
    }
  }
}

TEST(PaymentEquivalence, Fig4WorkedExamplePaysTheSameOnBothEngines) {
  const Scenario scenario = model::fig4_scenario();
  expect_walk_matches_oracle(scenario, scenario.truthful_bids(),
                             OnlineGreedyConfig{}, "fig4");
  // And both match the paper's hand-computed numbers (phones 1, 0, 6, 5, 3
  // paid 11, 9, 8, 11, 11).
  const OnlineGreedyMechanism fast;
  const Outcome outcome = fast.run(scenario, scenario.truthful_bids());
  EXPECT_EQ(outcome.payments[1], Money::from_units(11));
  EXPECT_EQ(outcome.payments[0], Money::from_units(9));
  EXPECT_EQ(outcome.payments[6], Money::from_units(8));
  EXPECT_EQ(outcome.payments[5], Money::from_units(11));
  EXPECT_EQ(outcome.payments[3], Money::from_units(11));
}

// -------------------------------------------- probe-level equivalence

/// One probe-engine configuration corner: a config and the copy of the
/// scenario it runs on, with that copy's truthful bids.
struct ProbeCase {
  std::string label;
  Scenario scenario;
  model::BidProfile bids;
  OnlineGreedyConfig config;
};

/// The corners a probe fork branches on, over one windowed scenario: the
/// paper default; a reserve below some bids and probe costs, so some bids
/// are never pooled; profitable-only allocation under a task value some
/// bids exceed; and per-task value overrides, so each slot's tasks are
/// served in value order.
std::vector<ProbeCase> probe_cases(const Scenario& base, Rng& rng) {
  std::vector<ProbeCase> cases;
  cases.push_back({"paper_default", base, {}, {}});

  OnlineGreedyConfig reserve;
  reserve.reserve_price = Money::from_units(20);
  cases.push_back({"reserve_20", base, {}, reserve});

  OnlineGreedyConfig profitable;
  profitable.allocate_only_profitable = true;
  Scenario low_value = base;
  low_value.task_value = Money::from_units(25);
  cases.push_back({"profitable_only", low_value, {}, profitable});

  Scenario weighted = base;
  for (model::Task& task : weighted.tasks) {
    task.value = Money::from_units(rng.uniform_int(1, 80));
  }
  cases.push_back({"weighted_tasks", weighted, {}, {}});

  for (ProbeCase& probe_case : cases) {
    probe_case.bids = probe_case.scenario.truthful_bids();
  }
  return cases;
}

/// One engine per case. The cases' engines are probed interleaved on one
/// thread, so every probe restarts the thread's core under a different
/// config than the probe before it.
std::vector<CounterfactualEngine> engines_for(
    const std::vector<ProbeCase>& cases) {
  std::vector<CounterfactualEngine> engines;
  engines.reserve(cases.size());
  for (const ProbeCase& probe_case : cases) {
    engines.emplace_back(
        probe_case.scenario, probe_case.bids, probe_case.config,
        run_greedy_allocation(probe_case.scenario, probe_case.bids,
                              probe_case.config)
            .allocation);
  }
  return engines;
}

TEST(PaymentEquivalence, WinsWithCostMatchesFullRerunOnRandomProbes) {
  Rng rng(777);
  for (int i = 0; i < 40; ++i) {
    const Scenario base = test_support::windowed(rng);
    const std::vector<ProbeCase> cases = probe_cases(base, rng);
    const std::vector<CounterfactualEngine> engines = engines_for(cases);
    for (int p = 0; p < base.phone_count(); ++p) {
      const PhoneId phone{p};
      for (int probe = 0; probe < 4; ++probe) {
        const Money cost = Money::from_micros(rng.uniform_int(0, 45'000'000));
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const ProbeCase& probe_case = cases[k];
          const model::BidProfile probed = model::with_bid(
              probe_case.bids, phone,
              model::Bid{probe_case.bids[static_cast<std::size_t>(p)].window,
                         cost});
          const GreedyRun full = run_greedy_allocation(
              probe_case.scenario, probed, probe_case.config);
          EXPECT_EQ(engines[k].wins_with_cost(phone, cost),
                    full.allocation.is_winner(phone))
              << probe_case.label << " scenario#" << i << " phone " << p
              << " cost " << cost;
        }
      }
    }
  }
}

/// The pre-engine bisection predicate: a full Algorithm-1 re-run per
/// probe. Kept in-test as the independent oracle for the engine-backed
/// greedy_critical_value.
std::optional<Money> full_rerun_critical_value(const Scenario& scenario,
                                               const model::BidProfile& bids,
                                               PhoneId phone,
                                               const OnlineGreedyConfig& config) {
  Money max_cost;
  for (const model::Bid& bid : bids) {
    max_cost = std::max(max_cost, bid.claimed_cost);
  }
  Money max_value = scenario.task_value;
  for (const model::Task& task : scenario.tasks) {
    max_value = std::max(max_value, scenario.value_of(task.id));
  }
  const Money upper_bound = Money::saturating_add(
      Money::saturating_add(max_value, max_cost), Money::from_units(1));
  const model::Bid& own = bids[static_cast<std::size_t>(phone.value())];
  const WinsWithCost wins = [&](Money cost) {
    const model::BidProfile probe =
        model::with_bid(bids, phone, model::Bid{own.window, cost});
    return run_greedy_allocation(scenario, probe, config)
        .allocation.is_winner(phone);
  };
  return bisect_critical_value(wins, upper_bound);
}

TEST(PaymentEquivalence, FastPaymentsEqualBisectedCriticalValues) {
  // In the scarcity-free regime every winner's payment is its critical
  // value (Theorem 4): the fast path must land within one micro of the
  // engine-backed bisection, and that bisection must agree *exactly* with
  // the full-rerun bisection oracle.
  Rng rng(90210);
  for (int i = 0; i < 25; ++i) {
    const Scenario scenario = test_support::scarcity_free(rng);
    const model::BidProfile bids = scenario.truthful_bids();
    const OnlineGreedyConfig config;
    const OnlineGreedyMechanism mechanism(config);
    const Outcome outcome = mechanism.run(scenario, bids);
    const CounterfactualEngine engine(scenario, bids, config,
                                      outcome.allocation);
    for (const PhoneId winner : outcome.allocation.winners()) {
      const std::optional<Money> fast_critical =
          greedy_critical_value(engine, winner);
      const std::optional<Money> oracle_critical =
          full_rerun_critical_value(scenario, bids, winner, config);
      EXPECT_EQ(fast_critical, oracle_critical)
          << "scenario#" << i << " phone " << winner.value();
      ASSERT_TRUE(fast_critical.has_value())
          << "scarcity-free winners have bounded critical values";
      const Money payment =
          outcome.payments[static_cast<std::size_t>(winner.value())];
      const std::int64_t gap =
          std::abs(payment.micros() - fast_critical->micros());
      EXPECT_LE(gap, 1) << "scenario#" << i << " phone " << winner.value()
                        << " payment " << payment << " vs critical "
                        << *fast_critical;
    }
  }
}

TEST(PaymentEquivalence, PublicCriticalValueProbeMatchesTheBisection) {
  // critical_value_of is the read-only seam strategic-agent code uses: it
  // must agree with greedy_critical_value on winnable phones, classify
  // unwinnable phones instead of tripping the bisection's precondition,
  // and bracket the win/lose boundary it reports -- in every config
  // corner, with the corners' engines interleaved on one thread.
  Rng rng(4242);
  int winnable = 0;
  int unwinnable = 0;
  for (int i = 0; i < 25; ++i) {
    const Scenario base = test_support::windowed(rng);
    const std::vector<ProbeCase> cases = probe_cases(base, rng);
    const std::vector<CounterfactualEngine> engines = engines_for(cases);
    for (int p = 0; p < base.phone_count(); ++p) {
      const PhoneId phone{p};
      for (std::size_t k = 0; k < cases.size(); ++k) {
        const CounterfactualEngine& engine = engines[k];
        const std::string where = cases[k].label + " scenario#" +
                                  std::to_string(i) + " phone " +
                                  std::to_string(p);
        const auto probe = engine.critical_value_of(phone);
        EXPECT_EQ(probe.winnable, engine.wins_with_cost(phone, Money{}))
            << where;
        if (!probe.winnable) {
          ++unwinnable;
          EXPECT_FALSE(probe.critical.has_value()) << where;
          continue;
        }
        ++winnable;
        EXPECT_EQ(probe.critical, greedy_critical_value(engine, phone))
            << where;
        if (probe.critical.has_value()) {
          // One micro below the threshold wins; at the threshold loses.
          EXPECT_TRUE(engine.wins_with_cost(
              phone, Money::from_micros(probe.critical->micros() - 1)))
              << where;
          EXPECT_FALSE(engine.wins_with_cost(phone, *probe.critical))
              << where;
        }
      }
    }
  }
  EXPECT_GT(winnable, 0);
  EXPECT_GT(unwinnable, 0) << "windowed instances should produce some "
                              "phones that cannot win at any claim";
}

// ------------------------------------------------ winner-payment audit

/// The audit as the bisection reaches it: a claim probe, the bisected
/// threshold T, and the one-micro rule |T - paid| <= 1.
PaymentAudit bisected_audit(const CounterfactualEngine& engine, PhoneId phone,
                            Money paid) {
  PaymentAudit audit;
  const Money claimed =
      engine.bids()[static_cast<std::size_t>(phone.value())].claimed_cost;
  if (!engine.wins_with_cost(phone, claimed)) {
    audit.verdict = PaymentAuditVerdict::kLosesAtClaim;
    return audit;
  }
  const std::optional<Money> critical = greedy_critical_value(engine, phone);
  if (!critical) {
    audit.verdict = PaymentAuditVerdict::kUnboundedSkipped;
  } else if (std::abs(critical->micros() - paid.micros()) > 1) {
    audit.verdict = PaymentAuditVerdict::kPaymentNotCritical;
    audit.critical = critical;
  }
  return audit;
}

void expect_same_audit(const PaymentAudit& certified,
                       const PaymentAudit& bisected, const std::string& where) {
  EXPECT_EQ(certified.verdict, bisected.verdict) << where;
  EXPECT_EQ(certified.critical, bisected.critical) << where;
}

TEST(PaymentAudit, CertificateMatchesTheBisectionOnServedRounds) {
  // Served rounds under the four probe corners (default, reserve,
  // profitable-only, weighted tasks), over windowed (scarce) and
  // scarcity-free bases. Each winner is audited at its served payment,
  // at +-1 and +-2 micros and +-1 unit of it, at every other winner's
  // payment, and at T - 2 .. T + 2 micros around its bisected threshold T,
  // where the one-micro tolerance flips.
  Rng rng(29);
  std::map<PaymentAuditVerdict, int> seen;
  for (int i = 0; i < 30; ++i) {
    const Scenario base = i % 2 == 0 ? test_support::windowed(rng)
                                     : test_support::scarcity_free(rng);
    for (const ProbeCase& probe_case : probe_cases(base, rng)) {
      const Outcome served =
          test_support::serve_round(probe_case.scenario, probe_case.bids,
                                    probe_case.config)
              .outcome;
      const CounterfactualEngine engine(probe_case.scenario, probe_case.bids,
                                        probe_case.config, served.allocation);
      const std::vector<PhoneId> winners = served.allocation.winners();
      for (const PhoneId winner : winners) {
        const Money paid =
            served.payments[static_cast<std::size_t>(winner.value())];
        std::vector<Money> amounts;
        for (const std::int64_t delta :
             {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
              std::int64_t{2}, std::int64_t{-2}, Money::kScale,
              -Money::kScale}) {
          amounts.push_back(Money::from_micros(paid.micros() + delta));
        }
        for (const PhoneId other : winners) {
          amounts.push_back(
              served.payments[static_cast<std::size_t>(other.value())]);
        }
        if (const std::optional<Money> critical =
                greedy_critical_value(engine, winner)) {
          for (std::int64_t delta = -2; delta <= 2; ++delta) {
            amounts.push_back(Money::from_micros(critical->micros() + delta));
          }
        }
        for (const Money amount : amounts) {
          const PaymentAudit certified =
              audit_winner_payment(engine, winner, amount);
          expect_same_audit(certified,
                            bisected_audit(engine, winner, amount),
                            probe_case.label + " round#" + std::to_string(i) +
                                " phone " + std::to_string(winner.value()) +
                                " paid " + amount.to_string());
          ++seen[certified.verdict];
        }
      }
    }
  }
  EXPECT_GT(seen[PaymentAuditVerdict::kOk], 0);
  EXPECT_GT(seen[PaymentAuditVerdict::kPaymentNotCritical], 0);
  EXPECT_GT(seen[PaymentAuditVerdict::kUnboundedSkipped], 0)
      << "windowed rounds without a reserve should reach supply scarcity";
}

TEST(PaymentAudit, PinsEachVerdictOnTheWorkedExamples) {
  // Fig. 4: Smartphone 1 (phone 0) wins and is paid 9.
  const Scenario fig4 = model::fig4_scenario();
  const model::BidProfile bids = fig4.truthful_bids();
  const Outcome outcome = OnlineGreedyMechanism().run(fig4, bids);
  ASSERT_EQ(outcome.payments[0], Money::from_units(9));
  const CounterfactualEngine engine(fig4, bids, OnlineGreedyConfig{},
                                    outcome.allocation);
  const PhoneId phone{0};

  const PaymentAudit ok =
      audit_winner_payment(engine, phone, Money::from_units(9));
  EXPECT_EQ(ok.verdict, PaymentAuditVerdict::kOk);
  EXPECT_FALSE(ok.critical.has_value());

  const PaymentAudit overpaid =
      audit_winner_payment(engine, phone, Money::from_units(10));
  EXPECT_EQ(overpaid.verdict, PaymentAuditVerdict::kPaymentNotCritical);
  EXPECT_EQ(overpaid.critical, greedy_critical_value(engine, phone));
  const PaymentAudit underpaid =
      audit_winner_payment(engine, phone, Money::from_units(8));
  EXPECT_EQ(underpaid.verdict, PaymentAuditVerdict::kPaymentNotCritical);
  EXPECT_EQ(underpaid.critical, overpaid.critical);

  // Hand one winner's task to a loser whose window holds its slot: an
  // allocation Algorithm 1 did not make, so the loser's fork from it loses
  // at the loser's own claim.
  std::optional<PhoneId> loser;
  std::optional<TaskId> moved;
  for (const model::Task& task : fig4.tasks) {
    for (int p = 0; p < fig4.phone_count() && !loser; ++p) {
      if (!outcome.allocation.is_winner(PhoneId{p}) &&
          bids[static_cast<std::size_t>(p)].window.contains(task.slot)) {
        loser = PhoneId{p};
        moved = task.id;
      }
    }
  }
  ASSERT_TRUE(loser.has_value()) << "Fig. 4 must offer a swap";
  Allocation swapped(fig4.task_count(), fig4.phone_count());
  for (const model::Task& task : fig4.tasks) {
    if (task.id == *moved) {
      swapped.assign(task.id, *loser);
    } else if (const std::optional<PhoneId> owner =
                   outcome.allocation.phone_for(task.id)) {
      swapped.assign(task.id, *owner);
    }
  }
  const CounterfactualEngine forged(fig4, bids, OnlineGreedyConfig{}, swapped);
  EXPECT_EQ(audit_winner_payment(forged, *loser, Money::from_units(9)).verdict,
            PaymentAuditVerdict::kLosesAtClaim);

  // Two phones, two tasks: without phone 0, slot 2's task goes unserved,
  // so phone 0 wins at any claim and the equality check does not apply.
  model::ScenarioBuilder builder(2);
  builder.value(10);
  builder.phone(1, 2, 1).phone(1, 2, 2);
  builder.task(1).task(2);
  const Scenario scarce = builder.build();
  const model::BidProfile scarce_bids = scarce.truthful_bids();
  const Outcome scarce_outcome =
      OnlineGreedyMechanism().run(scarce, scarce_bids);
  const CounterfactualEngine scarce_engine(scarce, scarce_bids,
                                           OnlineGreedyConfig{},
                                           scarce_outcome.allocation);
  const PaymentAudit unbounded =
      audit_winner_payment(scarce_engine, phone, scarce_outcome.payments[0]);
  EXPECT_EQ(unbounded.verdict, PaymentAuditVerdict::kUnboundedSkipped);
  EXPECT_FALSE(unbounded.critical.has_value());
}

// ----------------------------------------------------- counter contract

TEST(PaymentEquivalence, WalkReplacesFullRunsWithSlotReads) {
  // The whole point: counterfactual work is not counted as allocation
  // runs. The walk performs exactly one Algorithm-1 pass (the factual one)
  // per run() and reads one slot record per slot of each winner's
  // [t'_i, d~_i].
  const Scenario scenario = model::fig4_scenario();
  const model::BidProfile bids = scenario.truthful_bids();
  const Outcome outcome = OnlineGreedyMechanism().run(scenario, bids);
  std::int64_t window_slots = 0;
  for (const PhoneId winner : outcome.allocation.winners()) {
    Slot::rep_type win_slot = 0;
    for (int k = 0; k < scenario.task_count(); ++k) {
      if (outcome.allocation.phone_for(TaskId{k}) == winner) {
        win_slot = scenario.tasks[static_cast<std::size_t>(k)].slot.value();
      }
    }
    window_slots +=
        bids[static_cast<std::size_t>(winner.value())].window.end().value() -
        win_slot + 1;
  }

  obs::MetricsRegistry walk_registry;
  {
    const obs::ScopedRegistry guard(&walk_registry);
    (void)OnlineGreedyMechanism().run(scenario, bids);
  }
  const obs::MetricsSnapshot walk = walk_registry.snapshot();
  EXPECT_EQ(walk.counters.at("auction.greedy.allocation_runs"), 1);
  EXPECT_EQ(walk.counters.at("auction.settlement.slots_walked"), window_slots);
  EXPECT_EQ(walk.counters.count("auction.counterfactual.probe_forks"), 0u);
}

// ------------------------------------------------- misreported rounds

/// A round with weighted tasks, cheap tied costs (0 included) and scarce
/// supply, whose bids misreport windows and costs at random.
std::pair<Scenario, model::BidProfile> misreported_round(Rng& rng) {
  const auto slots = static_cast<Slot::rep_type>(rng.uniform_int(1, 7));
  model::ScenarioBuilder builder(slots);
  builder.value(8);
  const int phones = static_cast<int>(rng.uniform_int(1, 10));
  for (int i = 0; i < phones; ++i) {
    const auto a = static_cast<Slot::rep_type>(rng.uniform_int(1, slots));
    const auto d = static_cast<Slot::rep_type>(rng.uniform_int(a, slots));
    builder.phone(a, d, rng.uniform_int(0, 6));
  }
  const int tasks = static_cast<int>(rng.uniform_int(1, 10));
  for (int k = 0; k < tasks; ++k) {
    const auto t = static_cast<Slot::rep_type>(rng.uniform_int(1, slots));
    if (rng.bernoulli(0.5)) {
      builder.task(t);
    } else {
      builder.valued_task(t, rng.uniform_int(0, 10));
    }
  }
  Scenario scenario = builder.build();
  model::BidProfile bids = scenario.truthful_bids();
  for (model::Bid& bid : bids) {
    if (rng.bernoulli(0.5)) {
      const Slot::rep_type a = bid.window.begin().value();
      const Slot::rep_type d = bid.window.end().value();
      const auto late = static_cast<Slot::rep_type>(rng.uniform_int(a, d));
      const auto early = static_cast<Slot::rep_type>(rng.uniform_int(late, d));
      bid.window = SlotInterval::of(late, early);
    }
    if (rng.bernoulli(0.5)) {
      bid.claimed_cost = Money::from_units(rng.uniform_int(0, 9));
    }
  }
  return {std::move(scenario), std::move(bids)};
}

TEST(PaymentEquivalence, WalkMatchesFullReplayOnMisreportedRounds) {
  // 5 config families x 300 rounds; reserve 20 and 25 never bind at these
  // costs, so add one family whose reserve does.
  std::vector<std::pair<std::string, OnlineGreedyConfig>> families =
      config_families();
  OnlineGreedyConfig tight;
  tight.reserve_price = Money::from_units(4);
  tight.scarce_payment = OnlineGreedyConfig::ScarcePayment::kOwnBid;
  families.emplace_back("reserve_4_own_bid", tight);
  Rng rng(31337);
  for (const auto& [name, config] : families) {
    for (int i = 0; i < 300; ++i) {
      const auto [scenario, bids] = misreported_round(rng);
      expect_walk_matches_oracle(scenario, bids, config,
                                 name + "/misreported#" + std::to_string(i));
    }
  }
}

TEST(PaymentEquivalence, WalkFollowsAChainThatHopsTwice) {
  // Phone 0 wins slot 1. Without it phone 1 (the runner-up) takes slot 1,
  // so phone 1's factual win in slot 2 falls to phone 2 instead: the
  // missing bid hops 0 -> 1 -> 2, and phone 2 sets the price in slot 2.
  model::ScenarioBuilder builder(3);
  builder.value(10);
  builder.phone(1, 2, 1).phone(1, 3, 2).phone(1, 3, 3);
  builder.task(1).task(2).task(3);
  const Scenario scenario = builder.build();
  const model::BidProfile bids = scenario.truthful_bids();
  expect_walk_matches_oracle(scenario, bids, OnlineGreedyConfig{}, "hops");
  EXPECT_EQ(OnlineGreedyMechanism().run(scenario, bids).payments[0],
            Money::from_units(3));
}

TEST(PaymentEquivalence, WalkEndsTheChainInScarcity) {
  // Phone 0 wins slot 1 and phone 1 slot 2. Without phone 0, phone 1 moves
  // up to slot 1 and nobody is left for slot 2's task: it goes unserved,
  // so phone 0's critical value is unbounded and the scarcity policy
  // decides (the task value 10, or the dearest rival 2 under kOwnBid).
  model::ScenarioBuilder builder(2);
  builder.value(10);
  builder.phone(1, 2, 1).phone(1, 2, 2);
  builder.task(1).task(2);
  const Scenario scenario = builder.build();
  const model::BidProfile bids = scenario.truthful_bids();
  OnlineGreedyConfig own_bid;
  own_bid.scarce_payment = OnlineGreedyConfig::ScarcePayment::kOwnBid;
  for (const OnlineGreedyConfig& config : {OnlineGreedyConfig{}, own_bid}) {
    expect_walk_matches_oracle(scenario, bids, config, "scarcity");
  }
  EXPECT_EQ(OnlineGreedyMechanism().run(scenario, bids).payments[0],
            Money::from_units(10));
  EXPECT_EQ(OnlineGreedyMechanism(own_bid).run(scenario, bids).payments[0],
            Money::from_units(2));
}

TEST(PaymentEquivalence, WalkMatchesFullReplayAcrossConfigs) {
  // The walk against the full re-run: 3 configs x 70 rounds of uniform,
  // weighted and misreported tasks, a tight reserve with own-bid scarcity
  // payments among them.
  OnlineGreedyConfig reserve;
  reserve.reserve_price = Money::from_units(20);
  OnlineGreedyConfig tight;
  tight.reserve_price = Money::from_units(4);
  tight.scarce_payment = OnlineGreedyConfig::ScarcePayment::kOwnBid;
  const std::vector<std::pair<std::string, OnlineGreedyConfig>> families = {
      {"paper_default", OnlineGreedyConfig{}},
      {"reserve_20", reserve},
      {"reserve_4_own_bid", tight}};
  Rng rng(2026101);
  for (const auto& [name, config] : families) {
    const std::string family = name + "/";
    for (int i = 0; i < 30; ++i) {
      const Scenario uniform = test_support::windowed(
          rng, {.slots = 8, .max_phones = 9, .max_tasks = 9});
      expect_walk_matches_oracle(uniform, uniform.truthful_bids(), config,
                                 family + "uniform#" + std::to_string(i));
    }
    for (int i = 0; i < 10; ++i) {
      const Scenario weighted = weighted_tasks(rng);
      expect_walk_matches_oracle(weighted, weighted.truthful_bids(), config,
                                 family + "weighted#" + std::to_string(i));
    }
    for (int i = 0; i < 30; ++i) {
      const auto [scenario, bids] = misreported_round(rng);
      expect_walk_matches_oracle(scenario, bids, config,
                                 family + "misreported#" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace mcs::auction
