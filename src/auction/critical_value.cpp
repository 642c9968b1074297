#include "auction/critical_value.hpp"

#include <algorithm>

#include "auction/counterfactual.hpp"
#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::auction {

namespace {

/// One "critical_probe" record: the probed bid, whether the bidder still
/// won, and the bracket [lo, hi] *after* folding the probe in.
void log_probe(std::int32_t phone, Money probe, bool won, std::int64_t lo,
               std::int64_t hi) {
  obs::log_event([&] {
    obs::Event event("critical_probe");
    event.phone = phone;
    event.with("probe", probe)
        .with("won", won)
        .with("lo", Money::from_micros(lo))
        .with("hi", Money::from_micros(hi));
    return event;
  });
}

}  // namespace

std::optional<Money> bisect_critical_value(const WinsWithCost& wins,
                                           Money upper_bound,
                                           std::int64_t tolerance_micros,
                                           std::int32_t log_phone) {
  MCS_EXPECTS(tolerance_micros >= 1, "tolerance must be >= 1 micro");
  MCS_EXPECTS(!upper_bound.is_negative(), "upper_bound must be >= 0");
  obs::count("auction.critical_value.searches");
  std::int64_t probes = 1;  // the wins(0) precondition probe below
  MCS_EXPECTS(wins(Money{}), "bisect_critical_value requires wins(0)");
  log_probe(log_phone, Money{}, true, 0, upper_bound.micros());

  ++probes;
  if (wins(upper_bound)) {
    obs::count("auction.critical_value.probes", probes);
    log_probe(log_phone, upper_bound, true, upper_bound.micros(),
              upper_bound.micros());
    obs::log_event([&] {
      obs::Event event("critical_found");
      event.phone = log_phone;
      event.with("unbounded", true)
          .with("upper_bound", upper_bound)
          .with("probes", probes);
      return event;
    });
    return std::nullopt;  // unbounded in probed range
  }

  // Invariant: wins at `lo`, loses at `hi`.
  std::int64_t lo = 0;
  std::int64_t hi = upper_bound.micros();
  log_probe(log_phone, upper_bound, false, lo, hi);
  while (hi - lo > tolerance_micros) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    ++probes;
    const bool won = wins(Money::from_micros(mid));
    if (won) {
      lo = mid;
    } else {
      hi = mid;
    }
    log_probe(log_phone, Money::from_micros(mid), won, lo, hi);
  }
  obs::count("auction.critical_value.probes", probes);
  // `lo` is the largest probed winning cost; with tolerance 1 micro the
  // true threshold lies in (lo, lo + 1 micro], and for mechanisms whose
  // thresholds are exact bid values (the greedy rule) `hi` equals it.
  // `critical_bid` reports `hi` -- the value this function returns and the
  // payment path charges -- so explains never drift from the money moved;
  // the [lo, hi] bracket fields keep the search window inspectable.
  obs::log_event([&] {
    obs::Event event("critical_found");
    event.phone = log_phone;
    event.with("critical_bid", Money::from_micros(hi))
        .with("lo", Money::from_micros(lo))
        .with("hi", Money::from_micros(hi))
        .with("probes", probes);
    return event;
  });
  return Money::from_micros(hi);
}

namespace {

/// Probe range: the highest task value plus the highest claimed cost
/// exceeds any bounded critical value of the greedy rule. Saturating:
/// scenario files loaded through scenario_io may carry a task value near
/// the int64 micro limit, where the naive sum is signed-overflow UB; the
/// clamped Money::max() still dominates every bounded threshold (rival
/// bids are validated strictly below it).
Money probe_upper_bound(const model::Scenario& scenario,
                        const model::BidProfile& bids) {
  Money max_cost;
  for (const model::Bid& bid : bids) {
    max_cost = std::max(max_cost, bid.claimed_cost);
  }
  Money max_value = scenario.task_value;
  for (const model::Task& task : scenario.tasks) {
    max_value = std::max(max_value, scenario.value_of(task.id));
  }
  return Money::saturating_add(Money::saturating_add(max_value, max_cost),
                               Money::from_units(1));
}

}  // namespace

std::optional<Money> greedy_critical_value(const model::Scenario& scenario,
                                           const model::BidProfile& bids,
                                           PhoneId phone,
                                           const OnlineGreedyConfig& config) {
  const Allocation factual = [&] {
    // The factual pass is the engine's input, not a decision of any
    // recorded run: only the bisection's probes reach the caller's trail.
    const obs::ScopedEventLog suppress(nullptr);
    return run_greedy_allocation(scenario, bids, config).allocation;
  }();
  const CounterfactualEngine engine(scenario, bids, config, factual);
  return greedy_critical_value(engine, phone);
}

std::optional<Money> greedy_critical_value(const CounterfactualEngine& engine,
                                           PhoneId phone) {
  const Money upper_bound = probe_upper_bound(engine.scenario(), engine.bids());
  const WinsWithCost wins = [&](Money cost) {
    return engine.wins_with_cost(phone, cost);
  };
  return bisect_critical_value(wins, upper_bound, 1, phone.value());
}

PaymentAudit audit_winner_payment(const CounterfactualEngine& engine,
                                  PhoneId phone, Money paid) {
  const auto index = static_cast<std::size_t>(phone.value());
  MCS_EXPECTS(index < engine.bids().size(),
              "audit_winner_payment: phone outside the bid profile");
  const Money claimed = engine.bids()[index].claimed_cost;
  if (!engine.wins_with_cost(phone, claimed)) {
    return {PaymentAuditVerdict::kLosesAtClaim, std::nullopt};
  }
  // By monotonicity a winner at `claimed` wins at every lower claim.
  const auto wins = [&](Money cost) {
    return cost <= claimed || engine.wins_with_cost(phone, cost);
  };
  // The bisection passes `paid` when its first losing micro T on [0, U]
  // lies within one micro (a cost tie) of it; by monotonicity exactly when
  // the winner loses at min(paid + 1 micro, U) and wins at paid - 2 micros.
  const Money upper_bound = probe_upper_bound(engine.scenario(), engine.bids());
  const Money above = std::min(
      Money::saturating_add(paid, Money::from_micros(1)), upper_bound);
  const Money below = Money::saturating_add(paid, Money::from_micros(-2));
  const bool loses_above = !wins(above);
  if (loses_above && wins(below)) return {};  // kOk
  if (!loses_above && wins(upper_bound)) {
    return {PaymentAuditVerdict::kUnboundedSkipped, std::nullopt};
  }
  const std::optional<Money> critical = greedy_critical_value(engine, phone);
  MCS_ENSURES(critical, "audit_winner_payment: probes not monotone");
  return {PaymentAuditVerdict::kPaymentNotCritical, critical};
}

}  // namespace mcs::auction
