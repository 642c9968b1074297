// Structural validation of matchings -- a test check.
//
// Solvers assert their own invariants; the matching tests re-check every
// solver's output against the graph independently. validate_matching
// throws on the first inconsistency; recompute_weight re-derives the total
// from the graph so a test never trusts a cached sum.
#pragma once

#include "common/money.hpp"
#include "matching/bipartite_graph.hpp"

namespace mcs::matching {

/// Throws ContractViolation when the matching is structurally invalid for
/// the graph: wrong row count, column out of range, column matched twice,
/// or a matched pair with no edge.
void validate_matching(const WeightMatrix& graph, const Matching& matching);

/// True iff validate_matching would pass.
[[nodiscard]] bool is_valid_matching(const WeightMatrix& graph,
                                     const Matching& matching);

/// Sum of matched edge weights, recomputed from the graph (requires a valid
/// matching).
[[nodiscard]] Money recompute_weight(const WeightMatrix& graph,
                                     const Matching& matching);

}  // namespace mcs::matching
