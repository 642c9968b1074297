// The offline optimal truthful mechanism (paper Section IV).
//
// Winning-bids determination: build the task x phone bipartite graph of
// Fig. 3 (edge weight nu - b_i when phone i's reported window covers the
// task's slot) and take a maximum-weight matching -- optimal social welfare
// in O((n + gamma)^3) (Theorem 3). Payments are VCG (Eq. 7):
//
//    p_i = omega*(B) + b_i - omega*(B_{-i})   for winners,   0 for losers,
//
// where omega* is the optimal *claimed* welfare. With the optimal
// allocation this is truthful in all three dimensions (Theorem 1) and
// individually rational (Theorem 2).
//
// omega*(B_{-i}) is obtained from the matcher's incremental column-removal
// query (one augmenting path per winner) instead of a full re-solve; the
// tests cross-validate it against full re-solves of the reduced graph.
#pragma once

#include "auction/mechanism.hpp"
#include "matching/bipartite_graph.hpp"

namespace mcs::auction {

class OfflineVcgMechanism final : public Mechanism {
 public:
  [[nodiscard]] Outcome run(const model::Scenario& scenario,
                            const model::BidProfile& bids) const override;

  [[nodiscard]] std::string name() const override { return "offline-vcg"; }

  /// The Section IV-B graph construction, exposed for tests (the Fig. 3
  /// example asserts the exact edge set): rows are tasks in scenario order,
  /// columns are phones, edge weight nu - b_i iff the reported window of
  /// phone i holds the task's slot.
  [[nodiscard]] static matching::WeightMatrix build_graph(
      const model::Scenario& scenario, const model::BidProfile& bids);

  /// Optimal claimed welfare omega*(B) of the instance -- the offline
  /// benchmark value used by the competitive-ratio analysis (Theorem 6).
  [[nodiscard]] static Money optimal_claimed_welfare(
      const model::Scenario& scenario, const model::BidProfile& bids);
};

}  // namespace mcs::auction
