#include "support/brute_force.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace mcs::matching {

Matching brute_force_max_weight(const WeightMatrix& graph) {
  const int nr = graph.rows();
  const int nc = graph.cols();
  MCS_EXPECTS(nc <= kBruteForceMaxCols,
              "brute_force_max_weight: too many columns");
  const std::size_t mask_count = std::size_t{1} << nc;
  MCS_EXPECTS((static_cast<std::size_t>(nr) + 1) * mask_count <=
                  (std::size_t{1} << 25),
              "brute_force_max_weight: instance too large for the oracle");

  constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 2;

  // dp[k][mask]: best total weight (micros) after deciding rows [0, k) with
  // exactly the columns in `mask` used. Unreachable states hold kNegInf.
  std::vector<std::vector<std::int64_t>> dp(
      static_cast<std::size_t>(nr) + 1,
      std::vector<std::int64_t>(mask_count, kNegInf));
  dp[0][0] = 0;

  for (int k = 0; k < nr; ++k) {
    const auto row = static_cast<std::size_t>(k);
    for (std::size_t mask = 0; mask < mask_count; ++mask) {
      const std::int64_t base = dp[row][mask];
      if (base == kNegInf) continue;
      // Skip this row.
      dp[row + 1][mask] = std::max(dp[row + 1][mask], base);
      // Or match it to any free column with a nonnegative edge (negative
      // edges are dominated by skipping, matching MaxWeightMatcher).
      for (int c = 0; c < nc; ++c) {
        const std::size_t bit = std::size_t{1} << c;
        if ((mask & bit) != 0) continue;
        if (const auto w = graph.get(k, c); w && !w->is_negative()) {
          dp[row + 1][mask | bit] =
              std::max(dp[row + 1][mask | bit], base + w->micros());
        }
      }
    }
  }

  // Find the best final state, then reconstruct decisions backwards.
  std::size_t best_mask = 0;
  std::int64_t best = kNegInf;
  for (std::size_t mask = 0; mask < mask_count; ++mask) {
    if (dp[static_cast<std::size_t>(nr)][mask] > best) {
      best = dp[static_cast<std::size_t>(nr)][mask];
      best_mask = mask;
    }
  }
  MCS_ASSERT(best >= 0, "empty matching of weight 0 is always feasible");

  Matching matching;
  matching.row_to_col.assign(static_cast<std::size_t>(nr), std::nullopt);
  matching.total_weight = Money::from_micros(best);

  std::size_t mask = best_mask;
  for (int k = nr; k > 0; --k) {
    const auto row = static_cast<std::size_t>(k);
    const std::int64_t value = dp[row][mask];
    if (dp[row - 1][mask] == value) continue;  // row k-1 was skipped
    bool found = false;
    for (int c = 0; c < nc && !found; ++c) {
      const std::size_t bit = std::size_t{1} << c;
      if ((mask & bit) == 0) continue;
      if (const auto w = graph.get(k - 1, c); w && !w->is_negative()) {
        if (dp[row - 1][mask ^ bit] != kNegInf &&
            dp[row - 1][mask ^ bit] + w->micros() == value) {
          matching.row_to_col[row - 1] = c;
          mask ^= bit;
          found = true;
        }
      }
    }
    MCS_ASSERT(found, "DP reconstruction must find the chosen column");
  }
  return matching;
}

}  // namespace mcs::matching
