#include "serve/econ_telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/metrics.hpp"
#include "analysis/rationality.hpp"
#include "auction/counterfactual.hpp"
#include "auction/critical_value.hpp"
#include "auction/offline_vcg.hpp"
#include "auction/online_greedy.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace mcs::serve {

namespace {

/// The offline VCG reference prices a round only when it has at most this
/// many phones and tasks: its matching is cubic in their sum.
constexpr int kVcgMaxPhones = 12;
constexpr int kVcgMaxTasks = 12;

}  // namespace

bool econ_probe_sampled(std::int64_t round, std::int64_t probe_every,
                        std::uint64_t probe_seed) {
  if (probe_every <= 0) return false;
  const std::uint64_t mixed =
      SplitMix64(static_cast<std::uint64_t>(round) ^ probe_seed).next();
  return mixed % static_cast<std::uint64_t>(probe_every) == 0;
}

// ----------------------------------------------------------- EconTelemetry

EconTelemetry::EconTelemetry(EconTelemetryConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : &obs::steady_clock()) {}

void EconTelemetry::attach(int shards) {
  MCS_EXPECTS(shards >= 1, "econ telemetry requires >= 1 shard");
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  start_ns_ = clock_->now_ns();
  slots_.clear();
  aggregators_.clear();
  next_window_ = 0;
  for (int i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
    aggregators_.emplace_back();
  }
}

std::uint64_t EconTelemetry::now_ns() {
  const std::uint64_t now = clock_->now_ns();
  return now >= start_ns_ ? now - start_ns_ : 0;
}

void EconTelemetry::report_violation(int shard, std::int64_t round,
                                     std::string_view kind, std::int32_t phone,
                                     Money observed, Money expected) {
  slots_[static_cast<std::size_t>(shard)]->violations.fetch_add(
      1, std::memory_order_relaxed);
  // The one sanctioned registry write of this plane: bumped only on an
  // actual violation, and the probe sampler is round-seeded, so the
  // counter is a deterministic function of the stream.
  obs::count("econ.violations");
  if (config_.events != nullptr) {
    obs::Event event("econ_violation");
    event.phone = phone;
    event.with("round", round)
        .with("shard", static_cast<std::int64_t>(shard))
        .with("kind", std::string(kind))
        .with("observed", observed)
        .with("expected", expected);
    config_.events->append(std::move(event));
  }
}

std::int64_t EconTelemetry::observe_round(int shard, RoundMachine& machine,
                                          const RoundOutcome& result) {
  ShardSlot& slot = *slots_[static_cast<std::size_t>(shard)];
  if (!machine.capture_complete()) {
    slot.rounds_skipped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  CapturedRound captured = machine.take_captured();

  struct Violation {
    std::string kind;
    std::int32_t phone;
    Money observed;
    Money expected;
  };
  std::vector<Violation> violations;
  analysis::RoundMetrics metrics;
  bool have_metrics = false;
  bool sampled = false;
  std::int64_t probe_checks = 0;
  std::int64_t second_price_micros = 0;
  bool have_second_price = false;
  std::int64_t vcg_micros = 0;
  bool have_vcg = false;

  {
    // Quarantine: reference mechanisms, counterfactual probes, and metric
    // derivation are econ-plane bookkeeping, not decisions of the run.
    // Nothing inside this scope may touch the deterministic counter plane
    // or the primary event trail.
    const obs::ScopedRegistry quarantine(nullptr);
    const obs::ScopedEventLog suppress(nullptr);

    try {
      captured.scenario.validate();
      model::validate_bids(captured.scenario, captured.bids);
    } catch (const Error&) {
      // Untrusted stream produced an unreconstructable round; skipped, not
      // a mechanism violation.
      slot.rounds_skipped.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }

    // Cheap exact invariants, every round. Non-throwing by design.
    for (const analysis::InvariantViolation& v :
         analysis::check_round_invariants(captured.scenario, captured.bids,
                                          result.outcome, result.total_paid)) {
      violations.push_back(Violation{std::string(analysis::to_string(v.kind)),
                                     v.phone.value(), v.observed, v.expected});
    }

    try {
      metrics = analysis::compute_metrics(captured.scenario, captured.bids,
                                          result.outcome);
      have_metrics = true;
    } catch (const Error&) {
      // Structurally broken outcome (e.g. allocation outside a reported
      // window): the invariant list above already carries what we know.
    }

    try {
      for (const Money payment :
           auction::second_price_payments(captured.slots, captured.bids)) {
        second_price_micros += payment.micros();
      }
      have_second_price = true;
    } catch (const Error&) {
    }
    if (captured.scenario.phone_count() <= kVcgMaxPhones &&
        captured.scenario.task_count() <= kVcgMaxTasks) {
      try {
        const auction::OfflineVcgMechanism vcg;
        vcg_micros = vcg.run(captured.scenario, captured.bids)
                         .total_payment()
                         .micros();
        have_vcg = true;
      } catch (const Error&) {
      }
    }

    sampled = econ_probe_sampled(result.round, config_.probe_every,
                                 config_.probe_seed);
    if (sampled) {
      try {
        const auction::CounterfactualEngine engine(
            captured.scenario, captured.bids, captured.config,
            result.outcome.allocation);
        for (const PhoneId winner : result.outcome.allocation.winners()) {
          const Money paid = result.outcome.payments[static_cast<std::size_t>(
              winner.value())];
          const auction::PaymentAudit audit =
              auction::audit_winner_payment(engine, winner, paid);
          ++probe_checks;
          if (audit.verdict == auction::PaymentAuditVerdict::kLosesAtClaim) {
            violations.push_back(
                Violation{"probe-loses-at-claim", winner.value(), paid,
                          captured.bids[static_cast<std::size_t>(
                                            winner.value())]
                              .claimed_cost});
          } else if (audit.verdict ==
                     auction::PaymentAuditVerdict::kPaymentNotCritical) {
            violations.push_back(Violation{"probe-payment-not-critical",
                                           winner.value(), paid,
                                           *audit.critical});
          }
        }
      } catch (const Error&) {
        // A probe that cannot even replay the round is a skip, not proof
        // of mispricing; the cheap invariants above still stand.
        sampled = false;
        probe_checks = 0;
      }
    }
  }

  // Outside the quarantine: violation accounting is the plane's one
  // deterministic side effect.
  for (const Violation& v : violations) {
    report_violation(shard, result.round, v.kind, v.phone, v.observed,
                     v.expected);
  }

  slot.rounds.fetch_add(1, std::memory_order_relaxed);
  if (sampled) {
    slot.probe_rounds.fetch_add(1, std::memory_order_relaxed);
    slot.probe_checks.fetch_add(probe_checks, std::memory_order_relaxed);
  }
  if (have_second_price) {
    slot.second_price_payment_micros.fetch_add(second_price_micros,
                                               std::memory_order_relaxed);
  }
  if (have_vcg) {
    slot.vcg_payment_micros.fetch_add(vcg_micros, std::memory_order_relaxed);
    slot.vcg_rounds.fetch_add(1, std::memory_order_relaxed);
  }
  if (have_metrics) {
    slot.tasks.fetch_add(metrics.tasks_total, std::memory_order_relaxed);
    slot.tasks_allocated.fetch_add(metrics.tasks_allocated,
                                   std::memory_order_relaxed);
    slot.winners.fetch_add(
        static_cast<std::int64_t>(result.outcome.allocation.winners().size()),
        std::memory_order_relaxed);
    slot.payment_micros.fetch_add(metrics.total_payment.micros(),
                                  std::memory_order_relaxed);
    slot.claimed_cost_micros.fetch_add(metrics.total_true_cost.micros(),
                                       std::memory_order_relaxed);
    slot.fairness.record_ns(
        obs::ratio_to_sketch_units(metrics.payment_fairness));
    slot.overpayment.record_ns(
        obs::ratio_to_sketch_units(metrics.overpayment_ratio));
  }
  return static_cast<std::int64_t>(violations.size());
}

obs::EconCumulative EconTelemetry::sample_shard(ShardSlot& slot,
                                                std::uint64_t at_ns) {
  obs::EconCumulative sample;
  sample.at_ns = at_ns;
  sample.rounds = slot.rounds.load(std::memory_order_relaxed);
  sample.rounds_skipped = slot.rounds_skipped.load(std::memory_order_relaxed);
  sample.tasks = slot.tasks.load(std::memory_order_relaxed);
  sample.tasks_allocated =
      slot.tasks_allocated.load(std::memory_order_relaxed);
  sample.winners = slot.winners.load(std::memory_order_relaxed);
  sample.payment_micros = slot.payment_micros.load(std::memory_order_relaxed);
  sample.claimed_cost_micros =
      slot.claimed_cost_micros.load(std::memory_order_relaxed);
  sample.second_price_payment_micros =
      slot.second_price_payment_micros.load(std::memory_order_relaxed);
  sample.vcg_payment_micros =
      slot.vcg_payment_micros.load(std::memory_order_relaxed);
  sample.vcg_rounds = slot.vcg_rounds.load(std::memory_order_relaxed);
  sample.probe_rounds = slot.probe_rounds.load(std::memory_order_relaxed);
  sample.probe_checks = slot.probe_checks.load(std::memory_order_relaxed);
  sample.violations = slot.violations.load(std::memory_order_relaxed);
  sample.fairness = slot.fairness.snapshot();
  sample.overpayment = slot.overpayment.snapshot();
  return sample;
}

EconSnapshot EconTelemetry::take_snapshot() {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const std::uint64_t now = now_ns();
  EconSnapshot snapshot;
  snapshot.window = next_window_++;
  snapshot.at_ns = now;
  snapshot.cumulative.at_ns = now;
  snapshot.total.index = snapshot.window;
  snapshot.total.end_ns = now;
  snapshot.total.begin_ns = now;
  snapshot.shards.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const obs::EconCumulative sample = sample_shard(*slots_[i], now);
    snapshot.cumulative.rounds += sample.rounds;
    snapshot.cumulative.rounds_skipped += sample.rounds_skipped;
    snapshot.cumulative.tasks += sample.tasks;
    snapshot.cumulative.tasks_allocated += sample.tasks_allocated;
    snapshot.cumulative.winners += sample.winners;
    snapshot.cumulative.payment_micros += sample.payment_micros;
    snapshot.cumulative.claimed_cost_micros += sample.claimed_cost_micros;
    snapshot.cumulative.second_price_payment_micros +=
        sample.second_price_payment_micros;
    snapshot.cumulative.vcg_payment_micros += sample.vcg_payment_micros;
    snapshot.cumulative.vcg_rounds += sample.vcg_rounds;
    snapshot.cumulative.probe_rounds += sample.probe_rounds;
    snapshot.cumulative.probe_checks += sample.probe_checks;
    snapshot.cumulative.violations += sample.violations;
    snapshot.cumulative.fairness.merge(sample.fairness);
    snapshot.cumulative.overpayment.merge(sample.overpayment);

    EconShardWindow shard;
    shard.shard = static_cast<int>(i);
    shard.window = aggregators_[i].roll(sample);
    snapshot.total.begin_ns =
        std::min(snapshot.total.begin_ns, shard.window.begin_ns);
    snapshot.total.rounds += shard.window.rounds;
    snapshot.total.rounds_skipped += shard.window.rounds_skipped;
    snapshot.total.tasks += shard.window.tasks;
    snapshot.total.tasks_allocated += shard.window.tasks_allocated;
    snapshot.total.winners += shard.window.winners;
    snapshot.total.payment_micros += shard.window.payment_micros;
    snapshot.total.claimed_cost_micros += shard.window.claimed_cost_micros;
    snapshot.total.second_price_payment_micros +=
        shard.window.second_price_payment_micros;
    snapshot.total.vcg_payment_micros += shard.window.vcg_payment_micros;
    snapshot.total.vcg_rounds += shard.window.vcg_rounds;
    snapshot.total.probe_rounds += shard.window.probe_rounds;
    snapshot.total.probe_checks += shard.window.probe_checks;
    snapshot.total.violations += shard.window.violations;
    snapshot.total.fairness.merge(shard.window.fairness);
    snapshot.total.overpayment.merge(shard.window.overpayment);
    snapshot.shards.push_back(std::move(shard));
  }
  const double seconds = snapshot.total.seconds();
  if (seconds > 0.0) {
    snapshot.total.rounds_per_sec =
        static_cast<double>(snapshot.total.rounds) / seconds;
  }
  snapshot.total.coverage = obs::coverage_rate(snapshot.total.tasks_allocated,
                                               snapshot.total.tasks);
  snapshot.total.overpayment_ratio = obs::overpayment_ratio(
      Money::from_micros(snapshot.total.payment_micros),
      Money::from_micros(snapshot.total.claimed_cost_micros));
  snapshot.state = obs::classify_econ_health(snapshot.cumulative.violations);
  return snapshot;
}

std::int64_t EconTelemetry::violations() const {
  std::int64_t total = 0;
  for (const std::unique_ptr<ShardSlot>& slot : slots_) {
    total += slot->violations.load(std::memory_order_relaxed);
  }
  return total;
}

// -------------------------------------------------------- JSONL rendering

namespace {

std::int64_t to_ms(std::uint64_t ns) {
  return static_cast<std::int64_t>(ns / 1'000'000ULL);
}

/// Micro-ratio sketch quantile as a plain ratio field (null when empty).
void write_ratio_fields(io::JsonWriter& json, std::string_view prefix,
                        const obs::LatencySketchSnapshot& sketch) {
  const auto field = [&](std::string_view suffix, double units) {
    json.field(std::string(prefix) + std::string(suffix),
               obs::sketch_units_to_ratio(units));
  };
  field("_p50", sketch.quantile_ns(0.50));
  field("_p95", sketch.quantile_ns(0.95));
}

std::string micros_string(std::int64_t micros) {
  return Money::from_micros(micros).to_string();
}

}  // namespace

void write_econ_snapshot(std::ostream& os, const EconSnapshot& snapshot) {
  {
    io::JsonWriter json(os);
    json.begin_object();
    json.field("schema", "mcs.serve_econ.v1");
    json.field("window", snapshot.window);
    json.field("at_ms", to_ms(snapshot.at_ns));
    json.field("span_ms",
               to_ms(snapshot.total.end_ns - snapshot.total.begin_ns));
    json.field("econ_state", obs::to_string(snapshot.state));
    json.field("rounds", snapshot.total.rounds);
    json.field("rounds_skipped", snapshot.total.rounds_skipped);
    json.field("rounds_per_sec", snapshot.total.rounds_per_sec);
    json.field("tasks", snapshot.total.tasks);
    json.field("tasks_allocated", snapshot.total.tasks_allocated);
    json.field("coverage", snapshot.total.coverage);
    json.field("winners", snapshot.total.winners);
    json.field("payment", micros_string(snapshot.total.payment_micros));
    json.field("claimed_cost",
               micros_string(snapshot.total.claimed_cost_micros));
    json.field("overpayment_ratio", snapshot.total.overpayment_ratio);
    json.field("second_price_payment",
               micros_string(snapshot.total.second_price_payment_micros));
    json.field("vcg_payment",
               micros_string(snapshot.total.vcg_payment_micros));
    json.field("vcg_rounds", snapshot.total.vcg_rounds);
    write_ratio_fields(json, "fairness", snapshot.total.fairness);
    write_ratio_fields(json, "overpayment", snapshot.total.overpayment);
    json.field("probe_rounds", snapshot.total.probe_rounds);
    json.field("probe_checks", snapshot.total.probe_checks);
    json.field("violations", snapshot.total.violations);
    json.key("cumulative");
    json.begin_object();
    json.field("rounds", snapshot.cumulative.rounds);
    json.field("rounds_skipped", snapshot.cumulative.rounds_skipped);
    json.field("tasks", snapshot.cumulative.tasks);
    json.field("tasks_allocated", snapshot.cumulative.tasks_allocated);
    json.field("winners", snapshot.cumulative.winners);
    json.field("payment", micros_string(snapshot.cumulative.payment_micros));
    json.field("claimed_cost",
               micros_string(snapshot.cumulative.claimed_cost_micros));
    json.field(
        "second_price_payment",
        micros_string(snapshot.cumulative.second_price_payment_micros));
    json.field("vcg_payment",
               micros_string(snapshot.cumulative.vcg_payment_micros));
    json.field("vcg_rounds", snapshot.cumulative.vcg_rounds);
    json.field("probe_rounds", snapshot.cumulative.probe_rounds);
    json.field("probe_checks", snapshot.cumulative.probe_checks);
    json.field("violations", snapshot.cumulative.violations);
    json.end_object();
    json.key("shards");
    json.begin_array();
    for (const EconShardWindow& shard : snapshot.shards) {
      json.begin_object();
      json.field("shard", static_cast<std::int64_t>(shard.shard));
      json.field("rounds", shard.window.rounds);
      json.field("payment", micros_string(shard.window.payment_micros));
      json.field("violations", shard.window.violations);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  os << '\n';
}

// --------------------------------------------------- Prometheus rendering

void render_econ_prometheus(std::ostream& os, const EconSnapshot& snapshot) {
  obs::MetricsRegistry registry;
  const auto gauge = [&](const std::string& name, double value,
                         std::string_view help = {}) {
    if (std::isfinite(value)) registry.gauge(name, help).set(value);
  };
  gauge("serve.econ.window", static_cast<double>(snapshot.window),
        "monotone econ snapshot window index");
  gauge("serve.econ.state", static_cast<double>(snapshot.state),
        "econ health severity: 0 healthy, 4 degraded-economics");
  gauge("serve.econ.rounds_per_sec", snapshot.total.rounds_per_sec,
        "rounds audited per second in the last window");
  gauge("serve.econ.coverage", snapshot.total.coverage,
        "fraction of announced tasks allocated in the last window");
  gauge("serve.econ.overpayment_ratio", snapshot.total.overpayment_ratio,
        "window sigma: (payment - claimed cost) / claimed cost");
  gauge("serve.econ.payment",
        Money::from_micros(snapshot.total.payment_micros).to_double(),
        "payment disbursed in the last window (units)");
  gauge("serve.econ.second_price_payment",
        Money::from_micros(snapshot.total.second_price_payment_micros)
            .to_double(),
        "per-slot second-price reference payment for the window (units)");
  gauge("serve.econ.fairness_p50",
        obs::sketch_units_to_ratio(snapshot.total.fairness.quantile_ns(0.50)),
        "per-round Jain payment-fairness index, window p50");
  gauge("serve.econ.violations",
        static_cast<double>(snapshot.cumulative.violations),
        "sentinel violations observed since attach");
  gauge("serve.econ.probe_rounds",
        static_cast<double>(snapshot.cumulative.probe_rounds),
        "rounds deep-probed since attach");
  for (const EconShardWindow& shard : snapshot.shards) {
    const std::string prefix =
        "serve.econ.shard." + std::to_string(shard.shard) + ".";
    gauge(prefix + "rounds", static_cast<double>(shard.window.rounds));
    gauge(prefix + "violations",
          static_cast<double>(shard.window.violations));
  }
  obs::write_prometheus(os, registry);
}

}  // namespace mcs::serve
