#include "auction/critical_value.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "auction/counterfactual.hpp"
#include "common/assert.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::auction {

std::optional<Money> bisect_critical_value(const WinsWithCost& wins,
                                           Money upper_bound) {
  MCS_EXPECTS(!upper_bound.is_negative(), "upper_bound must be >= 0");
  obs::count("auction.critical_value.searches");
  std::int64_t probes = 2;  // wins(0) and wins(upper_bound) below
  MCS_EXPECTS(wins(Money{}), "bisect_critical_value requires wins(0)");
  if (wins(upper_bound)) {
    obs::count("auction.critical_value.probes", probes);
    return std::nullopt;  // unbounded in probed range
  }

  // Invariant: wins at `lo`, loses at `hi`. `hi` ends on the cheapest
  // losing claim, one micro above the dearest winning one; the greedy
  // rule's payment is within that micro (a cost tie may go either way).
  std::int64_t lo = 0;
  std::int64_t hi = upper_bound.micros();
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (wins(Money::from_micros(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  obs::count("auction.critical_value.probes", probes);
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

std::optional<Money> greedy_critical_value(const CounterfactualEngine& engine,
                                           PhoneId phone) {
  const Money upper_bound = probe_upper_bound(engine.scenario(), engine.bids());
  const WinsWithCost wins = [&](Money cost) {
    return engine.wins_with_cost(phone, cost);
  };
  return bisect_critical_value(wins, upper_bound);
}

std::string_view to_string(PaymentAuditVerdict verdict) {
  constexpr std::array<std::string_view, 4> kNames = {
      "ok", "loses_at_claim", "not_critical", "unbounded"};
  return kNames[static_cast<std::size_t>(verdict)];
}

PaymentAudit audit_winner_payment(const CounterfactualEngine& engine,
                                  PhoneId phone, Money paid) {
  const auto index = static_cast<std::size_t>(phone.value());
  MCS_EXPECTS(index < engine.bids().size(),
              "audit_winner_payment: phone outside the bid profile");
  const Money claimed = engine.bids()[index].claimed_cost;
  // Each fork run, in order, for the payment_certificate record.
  struct Fork { const char* name; Money cost; bool won; };
  std::array<Fork, 4> forks{};
  std::size_t ran = 0;
  const auto wins = [&](const char* name, Money cost) {
    // By monotonicity a winner at `claimed` wins at every lower claim.
    const bool won = (ran > 0 && cost <= claimed) ||
                     engine.wins_with_cost(phone, cost);
    forks[ran++] = Fork{name, cost, won};
    return won;
  };
  // The bisection passes `paid` when its first losing micro T on [0, U]
  // lies within one micro (a cost tie) of it; by monotonicity exactly when
  // the winner loses at min(paid + 1 micro, U) and wins at paid - 2 micros.
  const Money upper_bound = probe_upper_bound(engine.scenario(), engine.bids());
  const Money above = std::min(
      Money::saturating_add(paid, Money::from_micros(1)), upper_bound);
  const Money below = Money::saturating_add(paid, Money::from_micros(-2));
  PaymentAudit audit;
  if (!wins("claim", claimed)) {
    audit.verdict = PaymentAuditVerdict::kLosesAtClaim;
  } else if (const bool loses_above = !wins("above", above);
             loses_above && wins("below", below)) {
    audit.verdict = PaymentAuditVerdict::kOk;
  } else if (!loses_above && wins("upper_bound", upper_bound)) {
    audit.verdict = PaymentAuditVerdict::kUnboundedSkipped;
  } else {
    audit.verdict = PaymentAuditVerdict::kPaymentNotCritical;
    audit.critical = greedy_critical_value(engine, phone);
    MCS_ENSURES(audit.critical, "audit_winner_payment: probes not monotone");
  }
  obs::log_event([&] {
    obs::Event event("payment_certificate");
    event.phone = phone.value();
    event.with("paid", paid).with("verdict",
                                  std::string(to_string(audit.verdict)));
    for (std::size_t k = 0; k < ran; ++k) {
      event.with(forks[k].name, forks[k].cost)
          .with(std::string(forks[k].name) + "_won", forks[k].won);
    }
    if (audit.critical) event.with("critical", *audit.critical);
    return event;
  });
  return audit;
}

}  // namespace mcs::auction
