// Dense weighted bipartite graphs (the representation of Section IV-B).
//
// The offline winning-bid determination problem is a maximum-weight
// bipartite matching: left vertices are sensing tasks, right vertices are
// smartphones, and the edge (task in slot j, phone i) exists with weight
// nu - b_i exactly when phone i's reported active window covers slot j
// (paper Fig. 3). This header provides the graph representation and the
// matching result type; the solver lives in hungarian.hpp (the exhaustive
// subset-DP oracle the tests check it against lives in tests/support).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/money.hpp"

namespace mcs::matching {

/// Dense rows x cols matrix of optional edge weights. Rows are the "left"
/// side (tasks), columns the "right" side (smartphones). An absent entry
/// means the pair can never be matched.
class WeightMatrix {
 public:
  WeightMatrix(int rows, int cols);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  /// Inserts or overwrites the edge (row, col).
  void set(int row, int col, Money weight);

  /// Removes the edge (row, col) if present.
  void clear(int row, int col);

  [[nodiscard]] bool has_edge(int row, int col) const;

  /// Weight of (row, col); requires the edge to exist.
  [[nodiscard]] Money weight(int row, int col) const;

  /// Weight or nullopt when absent.
  [[nodiscard]] std::optional<Money> get(int row, int col) const;

  /// Number of present edges.
  [[nodiscard]] std::size_t edge_count() const;

  /// Copy of this matrix with one column's edges all removed (the VCG
  /// "without bidder i" graph). Column indices are preserved.
  [[nodiscard]] WeightMatrix without_column(int col) const;

 private:
  [[nodiscard]] std::size_t index(int row, int col) const {
    MCS_EXPECTS(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                "WeightMatrix index out of range");
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(col);
  }

  // Absent edges use INT64_MIN as sentinel in the packed micros array; the
  // sentinel can never be produced by Money arithmetic (Money::max() guard).
  static constexpr std::int64_t kAbsent = INT64_MIN;

  int rows_;
  int cols_;
  std::vector<std::int64_t> micros_;
};

/// A (not necessarily perfect) matching over a WeightMatrix.
struct Matching {
  /// For each row: matched column, or nullopt when the row is unmatched.
  std::vector<std::optional<int>> row_to_col;

  /// Sum of matched edge weights.
  Money total_weight;

  /// Number of matched rows.
  [[nodiscard]] std::size_t size() const;

  /// Inverse view: for each column, the matched row (or nullopt).
  [[nodiscard]] std::vector<std::optional<int>> col_to_row(int cols) const;
};

}  // namespace mcs::matching
