#include "support/validation.hpp"

#include <vector>

#include "common/assert.hpp"

namespace mcs::matching {

void validate_matching(const WeightMatrix& graph, const Matching& matching) {
  MCS_ASSERT(matching.row_to_col.size() ==
                 static_cast<std::size_t>(graph.rows()),
             "matching row count differs from graph row count");
  std::vector<char> column_used(static_cast<std::size_t>(graph.cols()), 0);
  for (std::size_t r = 0; r < matching.row_to_col.size(); ++r) {
    const auto& col = matching.row_to_col[r];
    if (!col) continue;
    MCS_ASSERT(*col >= 0 && *col < graph.cols(),
               "matched column index out of range");
    MCS_ASSERT(!column_used[static_cast<std::size_t>(*col)],
               "column matched to more than one row");
    column_used[static_cast<std::size_t>(*col)] = 1;
    MCS_ASSERT(graph.has_edge(static_cast<int>(r), *col),
               "matched pair has no edge in the graph");
  }
}

bool is_valid_matching(const WeightMatrix& graph, const Matching& matching) {
  try {
    validate_matching(graph, matching);
    return true;
  } catch (const ContractViolation&) {
    return false;
  }
}

Money recompute_weight(const WeightMatrix& graph, const Matching& matching) {
  validate_matching(graph, matching);
  Money total;
  for (std::size_t r = 0; r < matching.row_to_col.size(); ++r) {
    if (const auto& col = matching.row_to_col[r]) {
      total += graph.weight(static_cast<int>(r), *col);
    }
  }
  return total;
}

}  // namespace mcs::matching
