// Generic critical-value computation (Definition 9).
//
// For a monotone allocation rule, a bidder's critical value b^c is the
// threshold claimed cost: bid strictly below it and win, bid strictly above
// it and lose. This module computes b^c by bisection over the claimed cost,
// re-running the allocation as a black box. It is deliberately independent
// of Algorithm 2, so the tests can confirm that Algorithm 2's payment *is*
// the critical value -- the heart of the Theorem 4 proof -- without sharing
// any code with it. audit_winner_payment certifies a paid amount critical
// in three forks instead: every winner's payment explanation.
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "common/money.hpp"
#include "common/types.hpp"

namespace mcs::auction {

/// Predicate: does the bidder win when claiming `cost` (all else fixed)?
/// Must be monotone: winning at c implies winning at every c' <= c.
using WinsWithCost = std::function<bool(Money cost)>;

/// Bisects for the threshold between winning and losing claimed costs on
/// [0, upper_bound], exact to one micro-unit.
///
/// Preconditions: wins(0) is true (call this only for bidders that win at
/// some cost) and `wins` is monotone.
/// Returns nullopt when the bidder wins even at `upper_bound` (the critical
/// value is unbounded within the probed range, e.g. under supply scarcity);
/// otherwise returns the cheapest losing claim. Records no events: a
/// payment's explanation is audit_winner_payment's certificate.
[[nodiscard]] std::optional<Money> bisect_critical_value(
    const WinsWithCost& wins, Money upper_bound);

class CounterfactualEngine;  // auction/counterfactual.hpp

/// Critical claimed cost of `phone` under the greedy online allocation
/// (Algorithm 1) with everyone else's bids fixed, bisected on `engine`.
/// Requires that `phone` wins when claiming 0. Returns nullopt when the
/// phone wins at any probed cost (supply scarcity). The probe range is the
/// task value plus the maximum claimed cost in the bids (saturating at
/// Money::max() on adversarial inputs), which exceeds any bounded critical
/// value of the greedy rule. The bisection *algorithm* stays independent
/// of Algorithm 2's max-over-winners derivation, preserving the
/// payment-equals-critical-value cross-check.
[[nodiscard]] std::optional<Money> greedy_critical_value(
    const CounterfactualEngine& engine, PhoneId phone);

// ------------------------------------------------- winner-payment audit

/// Verdict of one deep winner probe (the live econ sentinel's sampled
/// check; also usable by offline truthfulness audits).
enum class PaymentAuditVerdict {
  kOk,                 ///< wins at its claim and is paid the critical value
  kLosesAtClaim,       ///< allocation inconsistency: winner loses when
                       ///< re-run at its own reported cost
  kPaymentNotCritical, ///< bounded critical value exists but != payment
  kUnboundedSkipped,   ///< critical value unbounded (supply scarcity);
                       ///< the equality check does not apply
};

struct PaymentAudit {
  PaymentAuditVerdict verdict{PaymentAuditVerdict::kOk};
  /// The bisected critical value, filled only on kPaymentNotCritical.
  std::optional<Money> critical;
};

/// The verdict as a payment_certificate record names it: "ok",
/// "loses_at_claim", "not_critical" or "unbounded".
[[nodiscard]] std::string_view to_string(PaymentAuditVerdict verdict);

/// Audits one factual winner against Theorem 4's payment characterization:
/// (a) the phone still wins when re-run at its reported cost, and (b) its
/// payment `paid` equals the greedy critical value -- within the one micro
/// of a cost tie -- when that value is bounded. Certifies rather than
/// searches (same verdicts): the phone loses at paid + 1 micro and wins at
/// paid - 2 micros; only a failed certificate bisects. One shared-prefix
/// engine serves every winner of the round.
/// Writes one "payment_certificate" record to an installed obs::EventLog:
/// `paid`, the verdict, each fork run (`claim`, `above`, `below`,
/// `upper_bound`) with a `<fork>_won` flag, and `critical` if bisected.
[[nodiscard]] PaymentAudit audit_winner_payment(
    const CounterfactualEngine& engine, PhoneId phone, Money paid);

}  // namespace mcs::auction
