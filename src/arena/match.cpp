#include "arena/match.hpp"

#include <algorithm>
#include <limits>

#include "analysis/metrics.hpp"
#include "auction/offline_vcg.hpp"
#include "common/assert.hpp"
#include "obs/econ_metrics.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mcs::arena {

namespace {

// Salts keep the three deterministic streams of one arena seed -- policy
// assignment, pass-1 report randomness, probe sampling -- independent: a
// change in how one stream is consumed can never shift another.
constexpr std::uint64_t kAssignSalt = 0x61726E61'61736731ULL;  // "arna asg1"
constexpr std::uint64_t kReportSalt = 0x61726E61'72707431ULL;  // "arna rpt1"
constexpr std::uint64_t kProbeSalt = 0x61726E61'70726231ULL;   // "arna prb1"

std::uint64_t assignment_seed(std::uint64_t seed) {
  return SplitMix64(seed ^ kAssignSalt).next();
}

/// Pure sampling hash: the `probes_per_policy` phones with the smallest
/// hash per (round, policy) are the deviation probes.
std::uint64_t probe_hash(std::uint64_t seed, std::int64_t round,
                         PhoneId phone) {
  SplitMix64 outer(seed ^ kProbeSalt);
  SplitMix64 mixed(outer.next() ^
                   SplitMix64(static_cast<std::uint64_t>(round)).next());
  return SplitMix64(mixed.next() +
                    static_cast<std::uint64_t>(phone.value()))
      .next();
}

std::int64_t utility_micros(const model::Scenario& scenario,
                            const auction::Outcome& outcome, PhoneId phone) {
  return outcome.utility(scenario, phone).micros();
}

/// The canonical deviation set truthful probe agents try: the cost shade
/// and the Fig. 5 arrival delay, the arena's two headline attacks.
const std::vector<const BidderPolicy*>& canonical_deviations() {
  static const CostShadePolicy shade(1.5);
  static const DelayArrivalPolicy delay(2);
  static const std::vector<const BidderPolicy*> all = {&shade, &delay};
  return all;
}

}  // namespace

model::BidProfile build_round_bids(const MatchConfig& config,
                                   const PolicyMix& mix,
                                   const model::Scenario& scenario,
                                   std::int64_t round,
                                   std::vector<std::size_t>* assignment_out) {
  const std::uint64_t assign_seed = assignment_seed(config.seed);
  const std::size_t phones = scenario.phones.size();
  std::vector<std::size_t> assignment(phones);
  for (std::size_t i = 0; i < phones; ++i) {
    assignment[i] = mix.assign(assign_seed, round,
                               PhoneId{static_cast<PhoneId::rep_type>(i)});
  }

  // Pass 1: base reports, phone order, one per-round forked stream -- the
  // sequential draw order is part of the determinism contract.
  Rng report_rng =
      Rng(config.seed ^ kReportSalt).fork(static_cast<std::uint64_t>(round));
  model::BidProfile bids;
  bids.reserve(phones);
  for (std::size_t i = 0; i < phones; ++i) {
    const BidderPolicy& policy = *mix.entries()[assignment[i]].policy;
    const model::TrueProfile& profile = scenario.phones[i];
    model::Bid bid = policy.report(profile, report_rng);
    MCS_ENSURES(model::is_legal_report(profile, bid),
                "arena policy produced an illegal report: " + policy.name());
    bids.push_back(bid);
  }

  // Pass 2: adaptive responses against the frozen pass-1 profile, all
  // sharing one engine (one factual pass per round, not per responder).
  if (mix.has_adaptive()) {
    bool any_adaptive = false;
    for (std::size_t i = 0; i < phones; ++i) {
      if (mix.entries()[assignment[i]].policy->adaptive()) {
        any_adaptive = true;
        break;
      }
    }
    if (any_adaptive) {
      const auction::Allocation factual = [&] {
        const obs::ScopedEventLog suppress(nullptr);
        return auction::run_greedy_allocation(scenario, bids, config.greedy)
            .allocation;
      }();
      const auction::CounterfactualEngine engine(scenario, bids,
                                                 config.greedy, factual);
      model::BidProfile refined = bids;
      for (std::size_t i = 0; i < phones; ++i) {
        const BidderPolicy& policy = *mix.entries()[assignment[i]].policy;
        if (!policy.adaptive()) continue;
        const PhoneId self{static_cast<PhoneId::rep_type>(i)};
        model::Bid bid = policy.respond(engine, self);
        MCS_ENSURES(model::is_legal_report(scenario.phones[i], bid),
                    "arena respond pass produced an illegal report: " +
                        policy.name());
        refined[i] = bid;
      }
      bids = std::move(refined);
    }
  }

  if (assignment_out != nullptr) *assignment_out = std::move(assignment);
  return bids;
}

RoundCellStats evaluate_round(const MatchConfig& config,
                              const auction::Mechanism& mechanism,
                              const PolicyMix& mix, std::int64_t round) {
  obs::count("arena.rounds");
  const model::Scenario scenario =
      model::round_scenario(config.workload, config.seed, round);
  std::vector<std::size_t> assignment;
  const model::BidProfile bids =
      build_round_bids(config, mix, scenario, round, &assignment);
  const auction::Outcome outcome = mechanism.run(scenario, bids);
  const analysis::RoundMetrics metrics =
      analysis::compute_metrics(scenario, bids, outcome);

  RoundCellStats stats;
  stats.welfare_micros = metrics.social_welfare.micros();
  stats.payment_micros = metrics.total_payment.micros();
  stats.true_cost_micros = metrics.total_true_cost.micros();
  stats.tasks_total = metrics.tasks_total;
  stats.tasks_allocated = metrics.tasks_allocated;
  stats.fairness = metrics.payment_fairness;
  stats.policies.resize(mix.size());

  for (std::size_t i = 0; i < scenario.phones.size(); ++i) {
    const PhoneId phone{static_cast<PhoneId::rep_type>(i)};
    PolicyRoundStats& policy_stats = stats.policies[assignment[i]];
    ++policy_stats.agents;
    if (outcome.allocation.is_winner(phone)) ++policy_stats.winners;
    policy_stats.utility_micros += utility_micros(scenario, outcome, phone);
  }

  if (config.probes_per_policy <= 0) return stats;

  // Deviation probes: per policy, the probes_per_policy assigned phones
  // with the smallest sampling hash (ties by phone id).
  for (std::size_t p = 0; p < mix.size(); ++p) {
    std::vector<std::pair<std::uint64_t, std::size_t>> candidates;
    for (std::size_t i = 0; i < scenario.phones.size(); ++i) {
      if (assignment[i] != p) continue;
      candidates.emplace_back(
          probe_hash(config.seed, round,
                     PhoneId{static_cast<PhoneId::rep_type>(i)}),
          i);
    }
    std::sort(candidates.begin(), candidates.end());
    const std::size_t take =
        std::min(candidates.size(),
                 static_cast<std::size_t>(config.probes_per_policy));

    PolicyRoundStats& policy_stats = stats.policies[p];
    std::int64_t max_gain = std::numeric_limits<std::int64_t>::min();
    for (std::size_t k = 0; k < take; ++k) {
      const std::size_t i = candidates[k].second;
      const PhoneId phone{static_cast<PhoneId::rep_type>(i)};
      const model::Bid truth = model::truthful_bid(scenario.phones[i]);
      const std::int64_t actual = utility_micros(scenario, outcome, phone);
      std::int64_t delta = 0;
      bool probed = false;
      if (bids[i] == truth) {
        // Told the truth (by policy or by clamped no-op deviation):
        // prospective probe -- would any canonical deviation have paid?
        delta = std::numeric_limits<std::int64_t>::min();
        Rng unused(0);
        for (const BidderPolicy* deviation : canonical_deviations()) {
          const model::Bid deviated =
              deviation->report(scenario.phones[i], unused);
          if (deviated == truth) continue;  // clamped no-op
          const auction::Outcome alt = mechanism.run(
              scenario, model::with_bid(bids, phone, deviated));
          obs::count("arena.deviation_runs");
          delta = std::max(delta,
                           utility_micros(scenario, alt, phone) - actual);
          probed = true;
        }
      } else {
        // Deviated by policy: realized gain versus the truthful twin.
        const auction::Outcome twin =
            mechanism.run(scenario, model::with_bid(bids, phone, truth));
        obs::count("arena.deviation_runs");
        delta = actual - utility_micros(scenario, twin, phone);
        probed = true;
      }
      if (!probed) continue;
      ++policy_stats.probes;
      policy_stats.gain_micros += delta;
      max_gain = std::max(max_gain, delta);
    }
    if (policy_stats.probes > 0) policy_stats.max_gain_micros = max_gain;
  }
  return stats;
}

std::int64_t vcg_reference_micros(const MatchConfig& config,
                                  std::int64_t round) {
  const model::Scenario scenario =
      model::round_scenario(config.workload, config.seed, round);
  const auction::OfflineVcgMechanism vcg;
  const auction::Outcome outcome = vcg.run_truthful(scenario);
  obs::count("arena.vcg_reference_rounds");
  return outcome.total_payment().micros();
}

CellResult fold_cell(const std::string& mechanism_name, const PolicyMix& mix,
                     const std::vector<RoundCellStats>& rounds,
                     std::int64_t vcg_total_micros) {
  CellResult cell;
  cell.mechanism = mechanism_name;
  cell.mix = mix.name();
  cell.mix_detail = mix.describe();
  cell.rounds = static_cast<std::int64_t>(rounds.size());
  cell.vcg_payment = Money::from_micros(vcg_total_micros);
  cell.policies.resize(mix.size());
  for (std::size_t p = 0; p < mix.size(); ++p) {
    cell.policies[p].policy = mix.entries()[p].policy->name();
    cell.policies[p].weight = mix.entries()[p].weight;
  }

  std::int64_t welfare = 0;
  std::int64_t payment = 0;
  std::int64_t true_cost = 0;
  double fairness_sum = 0.0;
  std::vector<std::int64_t> max_gain(mix.size(),
                                     std::numeric_limits<std::int64_t>::min());
  for (const RoundCellStats& round : rounds) {
    MCS_ASSERT(round.policies.size() == mix.size(),
               "fold_cell: round stats shape mismatch");
    welfare += round.welfare_micros;
    payment += round.payment_micros;
    true_cost += round.true_cost_micros;
    cell.tasks_total += round.tasks_total;
    cell.tasks_allocated += round.tasks_allocated;
    fairness_sum += round.fairness;
    for (std::size_t p = 0; p < mix.size(); ++p) {
      CellResult::PolicySummary& summary = cell.policies[p];
      const PolicyRoundStats& stats = round.policies[p];
      summary.agents += stats.agents;
      summary.winners += stats.winners;
      summary.utility =
          Money::from_micros(summary.utility.micros() + stats.utility_micros);
      summary.probes += stats.probes;
      if (stats.probes > 0) {
        max_gain[p] = std::max(max_gain[p], stats.max_gain_micros);
      }
    }
  }
  cell.social_welfare = Money::from_micros(welfare);
  cell.total_payment = Money::from_micros(payment);
  cell.total_true_cost = Money::from_micros(true_cost);
  cell.overpayment_ratio =
      obs::overpayment_ratio(cell.total_payment, cell.total_true_cost);
  cell.payment_vs_vcg = vcg_total_micros > 0
                            ? cell.total_payment.ratio_to(cell.vcg_payment)
                            : 0.0;
  cell.coverage = obs::coverage_rate(cell.tasks_allocated, cell.tasks_total);
  cell.mean_fairness =
      rounds.empty() ? 1.0 : fairness_sum / static_cast<double>(rounds.size());

  // Per-policy derived ratios: gather exact gain sums first.
  std::vector<std::int64_t> gain_sum(mix.size(), 0);
  for (const RoundCellStats& round : rounds) {
    for (std::size_t p = 0; p < mix.size(); ++p) {
      gain_sum[p] += round.policies[p].gain_micros;
    }
  }
  for (std::size_t p = 0; p < mix.size(); ++p) {
    CellResult::PolicySummary& summary = cell.policies[p];
    if (summary.agents > 0) {
      summary.mean_utility = static_cast<double>(summary.utility.micros()) /
                             static_cast<double>(summary.agents) / 1e6;
    }
    if (summary.probes > 0) {
      summary.mean_deviation_gain = static_cast<double>(gain_sum[p]) /
                                    static_cast<double>(summary.probes) / 1e6;
      summary.max_deviation_gain = Money::from_micros(max_gain[p]);
    }
  }
  return cell;
}

}  // namespace mcs::arena
