// Tests for the WeightMatrix representation and the Hungarian solver --
// including the randomized cross-validation against the brute-force oracle
// and the incremental column-removal query against full re-solves (the two
// properties the offline VCG mechanism depends on).
#include "matching/hungarian.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/brute_force.hpp"
#include "support/validation.hpp"

namespace mcs::matching {
namespace {

using money_literals::operator""_mu;

Money mu(std::int64_t units) { return Money::from_units(units); }

// ------------------------------------------------------------ WeightMatrix

TEST(WeightMatrix, StartsEmpty) {
  const WeightMatrix g(2, 3);
  EXPECT_EQ(g.rows(), 2);
  EXPECT_EQ(g.cols(), 3);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.get(1, 2).has_value());
}

TEST(WeightMatrix, SetGetClear) {
  WeightMatrix g(2, 2);
  g.set(0, 1, mu(5));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.weight(0, 1), mu(5));
  EXPECT_EQ(g.edge_count(), 1u);
  g.set(0, 1, mu(-2));  // overwrite, negative weights allowed
  EXPECT_EQ(g.weight(0, 1), mu(-2));
  g.clear(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_THROW(std::ignore = g.weight(0, 1), ContractViolation);
}

TEST(WeightMatrix, BoundsChecked) {
  WeightMatrix g(2, 2);
  EXPECT_THROW(g.set(2, 0, mu(1)), ContractViolation);
  EXPECT_THROW(g.set(0, -1, mu(1)), ContractViolation);
  EXPECT_THROW(std::ignore = g.get(0, 2), ContractViolation);
}

TEST(WeightMatrix, WithoutColumnRemovesAllItsEdges) {
  WeightMatrix g(2, 2);
  g.set(0, 0, mu(1));
  g.set(0, 1, mu(2));
  g.set(1, 1, mu(3));
  const WeightMatrix reduced = g.without_column(1);
  EXPECT_TRUE(reduced.has_edge(0, 0));
  EXPECT_FALSE(reduced.has_edge(0, 1));
  EXPECT_FALSE(reduced.has_edge(1, 1));
  // Original untouched.
  EXPECT_TRUE(g.has_edge(1, 1));
}

TEST(Matching, SizeAndInverse) {
  Matching m;
  m.row_to_col = {std::nullopt, 2, 0};
  EXPECT_EQ(m.size(), 2u);
  const auto inverse = m.col_to_row(3);
  EXPECT_FALSE(inverse[1].has_value());
  EXPECT_EQ(inverse[2], 1);
  EXPECT_EQ(inverse[0], 2);
}

// --------------------------------------------------------- MinCostAssigner

TEST(MinCostAssigner, TwoByTwoKnownOptimum) {
  // cost = [[4, 1], [2, 3]]: optimal is (0,1) + (1,0) = 3.
  MinCostAssigner solver(2, 2, {4, 1, 2, 3});
  solver.solve();
  EXPECT_EQ(solver.total_cost(), 3);
  EXPECT_EQ(solver.row_to_col()[0], 1);
  EXPECT_EQ(solver.row_to_col()[1], 0);
}

TEST(MinCostAssigner, RectangularUsesCheapColumns) {
  // 1 row, 3 cols.
  MinCostAssigner solver(1, 3, {7, 2, 9});
  solver.solve();
  EXPECT_EQ(solver.total_cost(), 2);
  EXPECT_EQ(solver.row_to_col()[0], 1);
}

TEST(MinCostAssigner, HandlesNegativeCosts) {
  MinCostAssigner solver(2, 2, {-5, 0, 0, -5});
  solver.solve();
  EXPECT_EQ(solver.total_cost(), -10);
}

TEST(MinCostAssigner, ForbiddenEdgesAvoided) {
  const std::int64_t F = MinCostAssigner::kForbidden;
  // Row 0 can only take col 1.
  MinCostAssigner solver(2, 2, {F, 3, 1, 2});
  solver.solve();
  EXPECT_EQ(solver.row_to_col()[0], 1);
  EXPECT_EQ(solver.row_to_col()[1], 0);
  EXPECT_EQ(solver.total_cost(), 4);
}

TEST(MinCostAssigner, InfeasibleThrows) {
  const std::int64_t F = MinCostAssigner::kForbidden;
  MinCostAssigner solver(2, 2, {F, 3, F, 2});  // both rows need col 1
  EXPECT_THROW(solver.solve(), SolverError);
}

TEST(MinCostAssigner, RejectsBadShape) {
  EXPECT_THROW(MinCostAssigner(3, 2, std::vector<std::int64_t>(6, 0)),
               ContractViolation);
  EXPECT_THROW(MinCostAssigner(2, 2, std::vector<std::int64_t>(3, 0)),
               ContractViolation);
}

TEST(MinCostAssigner, EmptyInstance) {
  MinCostAssigner solver(0, 0, {});
  solver.solve();
  EXPECT_EQ(solver.total_cost(), 0);
}

TEST(MinCostAssigner, AccessorsRequireSolve) {
  MinCostAssigner solver(1, 1, {1});
  EXPECT_THROW(std::ignore = solver.total_cost(), ContractViolation);
  EXPECT_THROW(std::ignore = solver.row_to_col(), ContractViolation);
}

TEST(MinCostAssigner, DualCertificateHolds) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(1, 6));
    const int cols = rows + static_cast<int>(rng.uniform_int(0, 4));
    std::vector<std::int64_t> cost(
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
    for (auto& c : cost) c = rng.uniform_int(-50, 50);
    MinCostAssigner solver(rows, cols, cost);
    solver.solve();
    const auto& u = solver.row_potentials();
    const auto& v = solver.col_potentials();
    // Feasibility: cost(i,j) >= u[i+1] + v[j+1] for all pairs; tight on
    // matched pairs. This is the LP optimality certificate.
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        const std::int64_t c =
            cost[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(j)];
        const std::int64_t reduced = c - u[static_cast<std::size_t>(i + 1)] -
                                     v[static_cast<std::size_t>(j + 1)];
        ASSERT_GE(reduced, 0) << "trial " << trial;
        if (solver.row_to_col()[static_cast<std::size_t>(i)] == j) {
          ASSERT_EQ(reduced, 0) << "trial " << trial;
        }
      }
    }
  }
}

// --------------------------------------------------------- MaxWeightMatcher

TEST(MaxWeightMatcher, PrefersHeavyEdges) {
  WeightMatrix g(2, 2);
  g.set(0, 0, mu(10));
  g.set(0, 1, mu(1));
  g.set(1, 0, mu(9));
  g.set(1, 1, mu(2));
  MaxWeightMatcher matcher(g);
  const Matching& m = matcher.solve();
  EXPECT_EQ(m.total_weight, mu(12));  // 10 + 2 beats 9 + 1
  EXPECT_EQ(m.row_to_col[0], 0);
  EXPECT_EQ(m.row_to_col[1], 1);
  validate_matching(g, m);
}

TEST(MaxWeightMatcher, LeavesRowsUnmatchedInsteadOfNegative) {
  WeightMatrix g(2, 2);
  g.set(0, 0, mu(5));
  g.set(1, 1, mu(-3));  // taking this edge would reduce welfare
  MaxWeightMatcher matcher(g);
  const Matching& m = matcher.solve();
  EXPECT_EQ(m.total_weight, mu(5));
  EXPECT_EQ(m.row_to_col[0], 0);
  EXPECT_FALSE(m.row_to_col[1].has_value());
}

TEST(MaxWeightMatcher, EmptyGraph) {
  WeightMatrix g(0, 0);
  MaxWeightMatcher matcher(g);
  EXPECT_EQ(matcher.total_weight(), Money{});
}

TEST(MaxWeightMatcher, NoEdgesMeansEmptyMatching) {
  WeightMatrix g(3, 2);
  MaxWeightMatcher matcher(g);
  const Matching& m = matcher.solve();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.total_weight, Money{});
}

TEST(MaxWeightMatcher, MoreRowsThanColumns) {
  WeightMatrix g(3, 1);
  g.set(0, 0, mu(1));
  g.set(1, 0, mu(5));
  g.set(2, 0, mu(3));
  MaxWeightMatcher matcher(g);
  const Matching& m = matcher.solve();
  EXPECT_EQ(m.total_weight, mu(5));
  EXPECT_EQ(m.row_to_col[1], 0);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MaxWeightMatcher, WithoutColumnOnUnmatchedColumnIsNoop) {
  WeightMatrix g(1, 2);
  g.set(0, 0, mu(5));
  g.set(0, 1, mu(2));
  MaxWeightMatcher matcher(g);
  EXPECT_EQ(matcher.total_weight(), mu(5));
  EXPECT_EQ(matcher.total_weight_without_column(1), mu(5));
}

TEST(MaxWeightMatcher, WithoutColumnReroutesDisplacedRow) {
  WeightMatrix g(1, 2);
  g.set(0, 0, mu(5));
  g.set(0, 1, mu(2));
  MaxWeightMatcher matcher(g);
  EXPECT_EQ(matcher.total_weight_without_column(0), mu(2));
}

TEST(MaxWeightMatcher, WithoutColumnOutOfRange) {
  WeightMatrix g(1, 1);
  g.set(0, 0, mu(1));
  MaxWeightMatcher matcher(g);
  EXPECT_THROW(std::ignore = matcher.total_weight_without_column(1),
               ContractViolation);
  EXPECT_THROW(std::ignore = matcher.total_weight_without_column(-1),
               ContractViolation);
}

// ------------------------------------------------- randomized property tests

/// Parameter: (rows, cols, weight range, edge density percent).
using RandomGraphParam = std::tuple<int, int, std::int64_t, int>;

class HungarianVsOracle : public ::testing::TestWithParam<RandomGraphParam> {
 protected:
  static WeightMatrix random_graph(Rng& rng, const RandomGraphParam& param) {
    const auto [rows, cols, range, density] = param;
    WeightMatrix g(rows, cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (rng.uniform_int(0, 99) < density) {
          g.set(r, c, Money::from_units(rng.uniform_int(-range, range)));
        }
      }
    }
    return g;
  }
};

TEST_P(HungarianVsOracle, TotalWeightMatchesBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const WeightMatrix g = random_graph(rng, GetParam());
    MaxWeightMatcher matcher(g);
    const Matching& fast = matcher.solve();
    const Matching slow = brute_force_max_weight(g);
    validate_matching(g, fast);
    ASSERT_EQ(fast.total_weight, slow.total_weight) << "trial " << trial;
    // The fast matching's recomputed weight must equal its claimed total.
    ASSERT_EQ(recompute_weight(g, fast), fast.total_weight);
  }
}

TEST_P(HungarianVsOracle, IncrementalRemovalMatchesFullResolve) {
  Rng rng(4048);
  for (int trial = 0; trial < 40; ++trial) {
    const WeightMatrix g = random_graph(rng, GetParam());
    MaxWeightMatcher matcher(g);
    matcher.solve();
    for (int c = 0; c < g.cols(); ++c) {
      MaxWeightMatcher fresh(g.without_column(c));
      ASSERT_EQ(matcher.total_weight_without_column(c), fresh.total_weight())
          << "trial " << trial << " column " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HungarianVsOracle,
    ::testing::Values(RandomGraphParam{3, 3, 20, 100},
                      RandomGraphParam{4, 6, 20, 70},
                      RandomGraphParam{6, 4, 15, 70},
                      RandomGraphParam{5, 5, 5, 50},   // many weight ties
                      RandomGraphParam{7, 9, 30, 40},  // sparse
                      RandomGraphParam{1, 8, 10, 60},
                      RandomGraphParam{8, 1, 10, 60},
                      RandomGraphParam{6, 6, 1, 80},  // heavy tie pressure
                      RandomGraphParam{4, 4, 25, 100},
                      RandomGraphParam{5, 7, 25, 60},
                      RandomGraphParam{7, 5, 25, 60},
                      RandomGraphParam{6, 6, 3, 80},
                      RandomGraphParam{2, 10, 50, 50}));

}  // namespace
}  // namespace mcs::matching
