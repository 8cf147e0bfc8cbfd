// CART regression tree: greedy variance-reduction splits, optional
// per-node feature subsampling (the randomness random forests need).
//
// Split finding runs on pre-sorted feature order (DESIGN.md §7.10): fit()
// sorts every feature once by (value, target, row) and the recursion
// maintains that order down both children with a stable partition, so no
// node ever sorts. A tree builds serially: the parallelism is a forest's,
// one task per tree. The fitted tree is stored as 16-byte PackedNodes in
// preorder, copied once from the build's recycled scratch into an
// exact-size array, with the interior means kept apart. That layout is the
// only tree form: model artifacts (ml/serialize.hpp) are written straight
// from it and read straight into it through from_preorder().
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "ml/regressor.hpp"

namespace dsem::ml {

struct TreeParams {
  int max_depth = 0;          ///< 0 = unlimited
  int min_samples_split = 2;  ///< fewer samples => leaf
  int min_samples_leaf = 1;   ///< each side of a split keeps at least this
  int max_features = 0;       ///< features tried per node; 0 = all
  std::uint64_t seed = 17;    ///< for feature subsampling
};

/// One node as a fitted tree stores it (DESIGN.md §7.10): 16 bytes, in
/// preorder, so an interior node's left child is always the next node and
/// only the right child needs an index. A leaf has feature -1 and keeps
/// its value in the threshold slot. Interior means are not here:
/// prediction never reads them.
struct PackedNode {
  double threshold = 0.0;    ///< split threshold; a leaf's value
  std::int32_t feature = -1; ///< split feature; -1 marks a leaf
  std::int32_t right = -1;   ///< right child's index; -1 in a leaf
};
static_assert(sizeof(PackedNode) == 16);

/// The leaf value row `x` reaches from the root of a preorder node array.
/// Unchecked: `x` must hold every split feature, which callers check once
/// against split_width() rather than per row.
inline double leaf_value(const PackedNode* nodes, const double* x) {
  const PackedNode* n = nodes;
  while (n->feature >= 0) {
    n = x[n->feature] <= n->threshold ? n + 1 : nodes + n->right;
  }
  return n->threshold;
}

namespace detail {

/// Per-feature sort of a training set by (value, target, row), stored
/// feature-major: order[f*n + i] is the row holding the i-th smallest
/// value of feature f, value[f*n + i] that value. Built once per dataset;
/// a forest shares one Presorted across all of its trees, turning each
/// bootstrap re-sort into an O(n) multiplicity expansion of this order.
struct Presorted {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<double> value;
  std::vector<std::uint32_t> row;

  static Presorted build(const Matrix& x, std::span<const double> y);
};

} // namespace detail

class DecisionTreeRegressor final : public Regressor {
public:
  explicit DecisionTreeRegressor(TreeParams params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<DecisionTreeRegressor>(params_);
  }
  std::string name() const override { return "DecisionTree"; }

  /// Fits on a resample of a pre-sorted dataset — the random-forest fast
  /// path. `sample` lists source rows (duplicates allowed, as bootstrap
  /// resampling produces); empty means the identity sample. Equivalent to
  /// fit(x.gather_rows(sample), y[sample]) but re-sorts each feature in
  /// O(n) from `ps` instead of O(n log n) from scratch.
  void fit_presorted(const detail::Presorted& ps, std::span<const double> y,
                     std::span<const std::size_t> sample);

  /// Rebuilds a fitted tree from its stored layout — the deserialization
  /// path (ml/serialize.hpp): preorder `nodes` and the interior nodes'
  /// `interior_means` in preorder, taken over without a copy. One forward
  /// pass checks the shape (a non-empty array that fits in int32,
  /// feature >= -1, leaves with no right child, each interior node's right
  /// child where its left subtree ends, every node consumed, one mean per
  /// interior node) and computes depth() and split_width(); it throws
  /// contract_error otherwise.
  static DecisionTreeRegressor
  from_preorder(TreeParams params, std::vector<PackedNode> nodes,
                std::vector<double> interior_means);

  const TreeParams& params() const noexcept { return params_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  /// Columns a row needs for every split to read inside it: 1 + the
  /// largest split feature index, 0 for a single-leaf tree. predict_one
  /// rejects narrower rows.
  std::size_t split_width() const noexcept { return split_width_; }
  /// The stored nodes, in preorder from the root at index 0: what the
  /// forest walks.
  std::span<const PackedNode> nodes() const noexcept { return nodes_; }
  /// The interior nodes' training-target means, in preorder: the i-th
  /// mean belongs to the i-th node of nodes() with feature >= 0.
  /// Prediction never reads them; serialization does.
  std::span<const double> interior_means() const noexcept {
    return interior_means_;
  }

private:
  struct Workspace;

  void build(Workspace& ws, Rng& rng);
  std::size_t split_node(Workspace& ws, std::size_t begin, std::size_t end,
                         int depth, std::uint8_t* state, Rng& rng);

  TreeParams params_;
  std::vector<PackedNode> nodes_;
  /// Kept out of the walked nodes: see interior_means().
  std::vector<double> interior_means_;
  int depth_ = 0;
  std::size_t split_width_ = 0;
};

} // namespace dsem::ml
