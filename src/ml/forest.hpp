// Random forest regressor: bagged CART trees with per-node feature
// subsampling, fitted in parallel (each tree owns an independent RNG
// stream, so fitting is deterministic regardless of scheduling).
#pragma once

#include "ml/tree.hpp"

namespace dsem::ml {

struct ForestParams {
  int n_estimators = 100;
  int max_depth = 0;         ///< 0 = unlimited
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  int max_features = 0;      ///< 0 = all features (sklearn regressor default)
  bool bootstrap = true;
  std::uint64_t seed = 42;
};

class RandomForestRegressor final : public Regressor {
public:
  explicit RandomForestRegressor(ForestParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  /// Rebuilds a fitted forest from restored trees — the deserialization
  /// path (ml/serialize.hpp). `trees` must hold exactly
  /// params.n_estimators fitted trees.
  static RandomForestRegressor from_trees(ForestParams params,
                                          std::vector<DecisionTreeRegressor> trees);
  double predict_one(std::span<const double> x) const override;
  /// Batch prediction in tree-outer order: each chunk of rows walks one
  /// tree's (hot) node array at a time instead of streaming the whole
  /// forest per row. Same sums as predict_one, row by row.
  std::vector<double> predict_many(const Matrix& x) const override;
  /// One walk per tree for the whole sweep (DESIGN.md §7.15): with the
  /// prefix fixed, a tree routes on prefix splits without forking and
  /// forks only on last-column splits, carrying the sorted values that
  /// reach each side. Every value takes the `x <= threshold` branch
  /// predict_one would and rows sum trees in ascending order, so the
  /// output is bit-identical to predict_many over the materialized rows.
  std::vector<double>
  predict_sweep(std::span<const double> prefix,
                std::span<const double> values) const override;
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<RandomForestRegressor>(params_);
  }
  std::string name() const override { return "RandomForest"; }

  const ForestParams& params() const noexcept { return params_; }
  std::size_t tree_count() const noexcept { return trees_.size(); }
  const DecisionTreeRegressor& tree(std::size_t i) const { return trees_[i]; }
  /// The widest split_width() of any tree: the columns a row needs.
  std::size_t split_width() const noexcept { return split_width_; }

private:
  ForestParams params_;
  std::vector<DecisionTreeRegressor> trees_;
  std::size_t split_width_ = 0;
};

} // namespace dsem::ml
