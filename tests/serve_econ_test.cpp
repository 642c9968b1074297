// Tests for the live economic telemetry plane and its invariant sentinel:
// golden mcs.serve_econ.v1 snapshots under a fake clock, sentinel
// detection of tampered payments (cheap accounting and deep
// counterfactual probes), zero violations on truthful traffic, and -- the
// acceptance contract -- proof that attaching the econ plane never
// perturbs the deterministic counter plane the bench gate compares bit
// for bit.
#include "serve/econ_telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.hpp"
#include "auction/second_price.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/wallclock.hpp"
#include "serve/engine.hpp"
#include "serve/event.hpp"
#include "serve/loadgen.hpp"
#include "serve/round_machine.hpp"
#include "serve/telemetry.hpp"
#include "support/engine_feed.hpp"

namespace mcs::serve {
namespace {

LoadGenConfig small_load(std::int64_t rounds = 4) {
  LoadGenConfig load;
  load.rounds = rounds;
  load.seed = 2026;
  load.workload.num_slots = 6;
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

/// Drives one loadgen round through a capture-mode RoundMachine exactly as
/// a shard worker would and returns the machine still holding its capture.
struct DrivenRound {
  std::unique_ptr<RoundMachine> machine;
  RoundOutcome outcome;
};

DrivenRound drive_round(std::int64_t round, const LoadGenConfig& load,
                        const auction::OnlineGreedyConfig& served = {}) {
  const model::Scenario scenario = loadgen_scenario(load, round);
  const std::vector<ServeEvent> events =
      round_events(round, scenario, scenario.truthful_bids());
  DrivenRound driven;
  driven.machine =
      std::make_unique<RoundMachine>(events.front(), served, /*capture=*/true);
  for (std::size_t i = 1; i < events.size(); ++i) {
    driven.machine->apply(events[i]);
  }
  driven.outcome = driven.machine->take_outcome();
  return driven;
}

// ------------------------------------------------------------ the sampler

TEST(EconSentinel, ProbeSamplerIsDeterministicAndSeeded) {
  EXPECT_FALSE(econ_probe_sampled(7, 0, 0)) << "0 disables deep probes";
  EXPECT_FALSE(econ_probe_sampled(7, -3, 0));
  std::int64_t sampled = 0;
  for (std::int64_t round = 0; round < 4096; ++round) {
    const bool hit = econ_probe_sampled(round, 16, 1);
    EXPECT_EQ(hit, econ_probe_sampled(round, 16, 1)) << "pure function";
    EXPECT_TRUE(econ_probe_sampled(round, 1, 1)) << "1 samples every round";
    sampled += hit ? 1 : 0;
  }
  // ~1/16 of 4096 = 256; the hash keeps it in a loose band.
  EXPECT_GT(sampled, 128);
  EXPECT_LT(sampled, 512);
  // A different seed picks a different (but still deterministic) set.
  std::int64_t agree = 0;
  for (std::int64_t round = 0; round < 4096; ++round) {
    agree += econ_probe_sampled(round, 16, 1) == econ_probe_sampled(round, 16, 2)
                 ? 1
                 : 0;
  }
  EXPECT_LT(agree, 4096);
}

// --------------------------------------------------------------- sentinel

TEST(EconSentinel, CleanRoundProducesNoViolations) {
  EconTelemetryConfig config;
  config.probe_every = 1;  // deep-probe everything
  EconTelemetry econ(config);
  econ.attach(1);
  DrivenRound driven = drive_round(0, small_load());
  econ.observe_round(0, *driven.machine, driven.outcome);
  EXPECT_EQ(econ.violations(), 0);
  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.state, obs::HealthState::kHealthy);
  EXPECT_EQ(snapshot.cumulative.rounds, 1);
  EXPECT_EQ(snapshot.cumulative.probe_rounds, 1);
  EXPECT_GT(snapshot.cumulative.probe_checks, 0);
}

TEST(EconSentinel, TamperedTotalTripsAccountingInvariant) {
  std::ostringstream sink;
  obs::JsonlEventSink jsonl(sink);
  obs::EventLog log(&jsonl);

  EconTelemetryConfig config;
  config.probe_every = 0;  // cheap invariants only
  config.events = &log;
  EconTelemetry econ(config);
  econ.attach(1);

  DrivenRound driven = drive_round(0, small_load());
  driven.outcome.total_paid =
      Money::from_micros(driven.outcome.total_paid.micros() + 1);

  obs::MetricsRegistry registry;
  {
    const obs::ScopedRegistry guard(&registry);
    econ.observe_round(0, *driven.machine, driven.outcome);
  }

  EXPECT_EQ(econ.violations(), 1);
  EXPECT_EQ(registry.snapshot().counters.at("econ.violations"), 1);
  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.state, obs::HealthState::kDegradedEconomics);
  EXPECT_EQ(snapshot.cumulative.violations, 1);
  EXPECT_NE(sink.str().find("\"type\":\"econ_violation\""), std::string::npos)
      << sink.str();
  EXPECT_NE(sink.str().find("payment-mismatch"), std::string::npos)
      << sink.str();
}

TEST(EconSentinel, DeepProbeCatchesInflatedWinnerPayment) {
  std::ostringstream sink;
  obs::JsonlEventSink jsonl(sink);
  obs::EventLog log(&jsonl);

  EconTelemetryConfig config;
  config.probe_every = 1;
  config.events = &log;
  EconTelemetry econ(config);
  econ.attach(1);

  DrivenRound driven = drive_round(0, small_load());
  const std::vector<PhoneId> winners =
      driven.outcome.outcome.allocation.winners();
  ASSERT_FALSE(winners.empty()) << "test round must allocate something";
  // Overpay one winner by 5 units and keep the streamed total consistent,
  // so the cheap accounting invariant passes and only the counterfactual
  // probe (payment == critical value) can catch it.
  const auto index = static_cast<std::size_t>(winners.front().value());
  const std::int64_t bump = Money::from_units(5).micros();
  driven.outcome.outcome.payments[index] = Money::from_micros(
      driven.outcome.outcome.payments[index].micros() + bump);
  driven.outcome.total_paid =
      Money::from_micros(driven.outcome.total_paid.micros() + bump);

  obs::MetricsRegistry registry;
  {
    const obs::ScopedRegistry guard(&registry);
    econ.observe_round(0, *driven.machine, driven.outcome);
  }

  EXPECT_GE(econ.violations(), 1);
  EXPECT_GE(registry.snapshot().counters.at("econ.violations"), 1);
  EXPECT_EQ(econ.take_snapshot().state, obs::HealthState::kDegradedEconomics);
  EXPECT_NE(sink.str().find("probe-payment-not-critical"), std::string::npos)
      << sink.str();
}

TEST(EconSentinel, ProbesForkingFromTheServedAllocationCatchASwappedWinner) {
  // Probes fork from the allocation the round reports. Hand one winner's
  // task to a loser whose window holds the task's slot and whose claim is
  // covered by the moved payment: the cheap invariants and the total still
  // balance, so only the loser's probe -- it loses at its claim -- catches
  // the swap.
  std::ostringstream sink;
  obs::JsonlEventSink jsonl(sink);
  obs::EventLog log(&jsonl);
  EconTelemetryConfig config;
  config.probe_every = 1;
  config.events = &log;
  EconTelemetry econ(config);
  econ.attach(1);

  const LoadGenConfig load = small_load();
  DrivenRound driven = drive_round(0, load);
  const model::Scenario scenario = loadgen_scenario(load, 0);
  auction::Outcome& outcome = driven.outcome.outcome;
  std::optional<TaskId> moved_task;
  std::optional<PhoneId> loser;
  for (const model::Task& task : scenario.tasks) {
    const std::optional<PhoneId> winner = outcome.allocation.phone_for(task.id);
    if (!winner) continue;
    const Money paid =
        outcome.payments[static_cast<std::size_t>(winner->value())];
    for (int p = 0; p < scenario.phone_count() && !loser; ++p) {
      const model::TrueProfile& phone =
          scenario.phones[static_cast<std::size_t>(p)];
      if (!outcome.allocation.is_winner(PhoneId{p}) &&
          phone.active.contains(task.slot) && phone.cost <= paid) {
        loser = PhoneId{p};
      }
    }
    if (loser) {
      moved_task = task.id;
      break;
    }
  }
  ASSERT_TRUE(loser.has_value()) << "test round must offer a swap";

  const PhoneId winner = *outcome.allocation.phone_for(*moved_task);
  auction::Allocation swapped(outcome.allocation.task_count(),
                              outcome.allocation.phone_count());
  for (const model::Task& task : scenario.tasks) {
    if (task.id == *moved_task) {
      swapped.assign(task.id, *loser);
    } else if (const std::optional<PhoneId> phone =
                   outcome.allocation.phone_for(task.id)) {
      swapped.assign(task.id, *phone);
    }
  }
  outcome.allocation = std::move(swapped);
  std::swap(outcome.payments[static_cast<std::size_t>(winner.value())],
            outcome.payments[static_cast<std::size_t>(loser->value())]);

  econ.observe_round(0, *driven.machine, driven.outcome);
  EXPECT_GE(econ.violations(), 1);
  EXPECT_NE(sink.str().find("\"kind\":\"probe-loses-at-claim\""),
            std::string::npos)
      << sink.str();
  EXPECT_EQ(sink.str().find("payment-mismatch"), std::string::npos)
      << "the swap must keep the payment total balanced";
}

TEST(EconSentinel, CapturelessRoundIsSkippedNotAudited) {
  EconTelemetry econ;
  econ.attach(1);
  const model::Scenario scenario = loadgen_scenario(small_load(), 0);
  const std::vector<ServeEvent> events =
      round_events(0, scenario, scenario.truthful_bids());
  RoundMachine machine(events.front(), auction::OnlineGreedyConfig{},
                       /*capture=*/false);
  for (std::size_t i = 1; i < events.size(); ++i) machine.apply(events[i]);
  const RoundOutcome outcome = machine.take_outcome();
  econ.observe_round(0, machine, outcome);
  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.cumulative.rounds, 0);
  EXPECT_EQ(snapshot.cumulative.rounds_skipped, 1);
  EXPECT_EQ(snapshot.state, obs::HealthState::kHealthy);
}

// ----------------------------------------------- agreement with analysis/

TEST(EconTelemetry, SnapshotTotalsMatchOfflineMetricsExactly) {
  EconTelemetryConfig config;
  config.probe_every = 0;
  EconTelemetry econ(config);
  econ.attach(1);

  const LoadGenConfig load = small_load();
  std::int64_t payment_micros = 0;
  std::int64_t claimed_micros = 0;
  std::int64_t tasks = 0;
  std::int64_t allocated = 0;
  for (std::int64_t round = 0; round < 3; ++round) {
    DrivenRound driven = drive_round(round, load);
    const model::Scenario scenario = loadgen_scenario(load, round);
    const analysis::RoundMetrics metrics = analysis::compute_metrics(
        scenario, scenario.truthful_bids(), driven.outcome.outcome);
    payment_micros += metrics.total_payment.micros();
    claimed_micros += metrics.total_true_cost.micros();
    tasks += metrics.tasks_total;
    allocated += metrics.tasks_allocated;
    econ.observe_round(0, *driven.machine, driven.outcome);
  }

  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.cumulative.rounds, 3);
  EXPECT_EQ(snapshot.cumulative.payment_micros, payment_micros);
  EXPECT_EQ(snapshot.cumulative.claimed_cost_micros, claimed_micros);
  EXPECT_EQ(snapshot.cumulative.tasks, tasks);
  EXPECT_EQ(snapshot.cumulative.tasks_allocated, allocated);
  EXPECT_EQ(snapshot.total.payment_micros, payment_micros)
      << "first window covers everything";
}

TEST(EconTelemetry, SecondPriceReferenceEqualsTheBatchBaselineExactly) {
  // The plane prices each round from the served slot records; the batch
  // SecondPriceBaseline re-runs Algorithm 1 on the same reports. The two
  // feeders of the one pricing rule must agree to the micro under every
  // served config.
  LoadGenConfig load = small_load();
  load.workload.task_value = Money::from_units(30);  // profitable-only bites
  auction::OnlineGreedyConfig reserve;
  reserve.reserve_price = Money::from_units(20);
  auction::OnlineGreedyConfig profitable;
  profitable.allocate_only_profitable = true;
  std::vector<std::int64_t> totals;
  for (const auction::OnlineGreedyConfig& served :
       {auction::OnlineGreedyConfig{}, reserve, profitable}) {
    EconTelemetryConfig config;
    config.probe_every = 0;
    EconTelemetry econ(config);
    econ.attach(1);
    std::int64_t expected = 0;
    for (std::int64_t round = 0; round < 4; ++round) {
      DrivenRound driven = drive_round(round, load, served);
      econ.observe_round(0, *driven.machine, driven.outcome);
      const model::Scenario scenario = loadgen_scenario(load, round);
      expected += auction::SecondPriceBaseline(served)
                      .run(scenario, scenario.truthful_bids())
                      .total_payment()
                      .micros();
    }
    const EconSnapshot snapshot = econ.take_snapshot();
    EXPECT_EQ(snapshot.cumulative.rounds, 4);
    EXPECT_EQ(snapshot.cumulative.second_price_payment_micros, expected);
    totals.push_back(expected);
  }
  EXPECT_NE(totals[1], totals[0]) << "the reserve must bind";
  EXPECT_NE(totals[2], totals[0]) << "profitable-only must bind";
}

// ------------------------------------------------------- golden snapshots

TEST(EconTelemetry, GoldenEmptySnapshotUnderFakeClock) {
  obs::FakeClock clock;
  EconTelemetryConfig config;
  config.clock = &clock;
  EconTelemetry econ(config);
  econ.attach(1);
  clock.advance_ms(1000);

  std::ostringstream os;
  write_econ_snapshot(os, econ.take_snapshot());
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"mcs.serve_econ.v1\",\"window\":0,\"at_ms\":1000,"
      "\"span_ms\":1000,\"econ_state\":\"healthy\",\"rounds\":0,"
      "\"rounds_skipped\":0,\"rounds_per_sec\":0,\"tasks\":0,"
      "\"tasks_allocated\":0,\"coverage\":1,\"winners\":0,\"payment\":\"0\","
      "\"claimed_cost\":\"0\",\"overpayment_ratio\":0,"
      "\"second_price_payment\":\"0\",\"vcg_payment\":\"0\",\"vcg_rounds\":0,"
      "\"fairness_p50\":null,\"fairness_p95\":null,\"overpayment_p50\":null,"
      "\"overpayment_p95\":null,\"probe_rounds\":0,\"probe_checks\":0,"
      "\"violations\":0,\"cumulative\":{\"rounds\":0,\"rounds_skipped\":0,"
      "\"tasks\":0,\"tasks_allocated\":0,\"winners\":0,\"payment\":\"0\","
      "\"claimed_cost\":\"0\",\"second_price_payment\":\"0\","
      "\"vcg_payment\":\"0\",\"vcg_rounds\":0,\"probe_rounds\":0,"
      "\"probe_checks\":0,\"violations\":0},\"shards\":[{\"shard\":0,"
      "\"rounds\":0,\"payment\":\"0\",\"violations\":0}]}\n");
}

TEST(EconTelemetry, GoldenOneRoundSnapshotUnderFakeClock) {
  // One deterministic loadgen round: every field of the line -- money,
  // ratios, quantiles -- is a pure function of the seed, so the whole
  // JSONL line is reproducible byte for byte.
  obs::FakeClock clock;
  EconTelemetryConfig config;
  config.clock = &clock;
  config.probe_every = 1;
  EconTelemetry econ(config);
  econ.attach(1);

  DrivenRound driven = drive_round(0, small_load());
  econ.observe_round(0, *driven.machine, driven.outcome);
  clock.advance_ms(2000);

  std::ostringstream os;
  write_econ_snapshot(os, econ.take_snapshot());
  EXPECT_EQ(
      os.str(),
      "{\"schema\":\"mcs.serve_econ.v1\",\"window\":0,\"at_ms\":2000,"
      "\"span_ms\":2000,\"econ_state\":\"healthy\",\"rounds\":1,"
      "\"rounds_skipped\":0,\"rounds_per_sec\":0.5,\"tasks\":16,"
      "\"tasks_allocated\":16,\"coverage\":1,\"winners\":16,"
      "\"payment\":\"263\",\"claimed_cost\":\"143\","
      "\"overpayment_ratio\":0.839160839161,"
      "\"second_price_payment\":\"217\",\"vcg_payment\":\"0\","
      "\"vcg_rounds\":0,\"fairness_p50\":0.950272,\"fairness_p95\":0.950272,"
      "\"overpayment_p50\":0.8192,\"overpayment_p95\":0.8192,"
      "\"probe_rounds\":1,\"probe_checks\":16,\"violations\":0,"
      "\"cumulative\":{\"rounds\":1,\"rounds_skipped\":0,\"tasks\":16,"
      "\"tasks_allocated\":16,\"winners\":16,\"payment\":\"263\","
      "\"claimed_cost\":\"143\",\"second_price_payment\":\"217\","
      "\"vcg_payment\":\"0\",\"vcg_rounds\":0,\"probe_rounds\":1,"
      "\"probe_checks\":16,\"violations\":0},\"shards\":[{\"shard\":0,"
      "\"rounds\":1,\"payment\":\"263\",\"violations\":0}]}\n");
}

// ------------------------------------------------------------- Prometheus

TEST(EconTelemetry, PrometheusRenderingExposesEconGauges) {
  obs::FakeClock clock;
  EconTelemetryConfig config;
  config.clock = &clock;
  EconTelemetry econ(config);
  econ.attach(2);
  clock.advance_ms(1000);

  std::ostringstream os;
  render_econ_prometheus(os, econ.take_snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("mcs_serve_econ_state 0"), std::string::npos) << text;
  EXPECT_NE(text.find("mcs_serve_econ_violations 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcs_serve_econ_coverage 1"), std::string::npos) << text;
  EXPECT_NE(text.find("mcs_serve_econ_shard_1_rounds 0"), std::string::npos)
      << text;
  // Empty-window quantiles are NaN and must be skipped, not emitted.
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

// ------------------------------------------------------ engine integration

TEST(EconTelemetry, TruthfulTrafficIsViolationFreeOverManyRounds) {
  // The acceptance bar: >= 200 truthful rounds through the real engine
  // with the sentinel sampling, zero violations, healthy state. The engine
  // keeps no outcomes, as mcs_cli serve runs it: each round's dense outcome
  // is built for the audit alone.
  const LoadGenConfig load = small_load(200);
  EconTelemetryConfig econ_config;
  econ_config.probe_every = 8;
  EconTelemetry econ(econ_config);

  ServeConfig config;
  config.shards = 2;
  config.econ = &econ;
  config.retain_outcomes = false;
  ServeEngine engine(config);
  test_support::feed(engine, events_of(load));
  engine.drain();

  EXPECT_EQ(econ.violations(), 0);
  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.state, obs::HealthState::kHealthy);
  EXPECT_EQ(snapshot.cumulative.rounds, 200);
  EXPECT_EQ(snapshot.cumulative.rounds_skipped, 0);
  EXPECT_GT(snapshot.cumulative.probe_rounds, 0);
  EXPECT_GT(snapshot.cumulative.payment_micros, 0);
  EXPECT_EQ(snapshot.cumulative.payment_micros,
            engine.stats().total_paid.micros());
  EXPECT_GT(snapshot.cumulative.second_price_payment_micros, 0)
      << "the per-slot second-price reference priced the stream";
}

TEST(EconTelemetry, ProbesReplayUnderTheServedConfig) {
  // The plane takes the mechanism knobs from the served round: a
  // default-configured plane audits a reserve + profitable-only engine
  // without a false alarm.
  const LoadGenConfig load = small_load(40);
  EconTelemetryConfig econ_config;
  econ_config.probe_every = 1;
  EconTelemetry econ(econ_config);

  ServeConfig config;
  config.shards = 2;
  config.greedy.reserve_price = Money::from_units(30);
  config.greedy.allocate_only_profitable = true;
  config.econ = &econ;
  ServeEngine engine(config);
  test_support::feed(engine, events_of(load));
  engine.drain();

  EXPECT_EQ(econ.violations(), 0);
  const EconSnapshot snapshot = econ.take_snapshot();
  EXPECT_EQ(snapshot.state, obs::HealthState::kHealthy);
  EXPECT_EQ(snapshot.cumulative.rounds, 40);
  EXPECT_GT(snapshot.cumulative.probe_checks, 0);
}

TEST(EconTelemetry, PublisherEmitsEconStreamAlongsideStats) {
  const LoadGenConfig load = small_load(3);
  LiveTelemetry live;
  EconTelemetry econ;
  ServeConfig config;
  config.live = &live;
  config.econ = &econ;
  std::ostringstream stats;
  std::ostringstream econ_sink;
  {
    ServeEngine engine(config);
    StatsPublisher publisher(live, stats, std::chrono::milliseconds(2), &econ,
                             &econ_sink);
    test_support::feed(engine, events_of(load));
    engine.drain();
    publisher.stop();
  }
  std::istringstream lines(econ_sink.str());
  std::string line;
  std::int64_t expected_window = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"schema\":\"mcs.serve_econ.v1\",\"window\":" +
                             std::to_string(expected_window) + ",",
                         0),
              0u)
        << line;
    ++expected_window;
  }
  EXPECT_GE(expected_window, 1);
}

// ----------------------------------------------- plane-separation contract

std::map<std::string, std::int64_t> counters_for(
    const std::vector<ServeEvent>& events, int shards, bool with_econ) {
  obs::MetricsRegistry registry;
  EconTelemetry econ;
  {
    const obs::ScopedRegistry guard(&registry);
    ServeConfig config;
    config.shards = shards;
    if (with_econ) config.econ = &econ;
    ServeEngine engine(config);
    test_support::feed(engine, events);
    engine.drain();
  }
  return registry.snapshot().counters;
}

TEST(EconTelemetry, EconPlaneNeverPerturbsDeterministicCounters) {
  // Identical merged counters with the econ plane off and on, for 1 and 8
  // shards: all reference pricing and probing runs quarantined, and the
  // one sanctioned counter (econ.violations) stays silent on truthful
  // traffic.
  const std::vector<ServeEvent> events = events_of(small_load(6));
  const std::map<std::string, std::int64_t> baseline =
      counters_for(events, 1, false);
  ASSERT_GT(baseline.at("serve.events.round_open"), 0);
  EXPECT_EQ(baseline, counters_for(events, 1, true));
  EXPECT_EQ(baseline, counters_for(events, 8, false));
  EXPECT_EQ(baseline, counters_for(events, 8, true));
}

}  // namespace
}  // namespace mcs::serve
