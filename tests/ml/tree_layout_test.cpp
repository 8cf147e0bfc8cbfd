// The stored tree layout (DESIGN.md §7.10): 16-byte PackedNodes in
// preorder, a left child at its parent's index + 1, leaf values in the
// threshold slot, interior means kept apart. to_nodes() reads a tree back
// in interchange form, and from_nodes() loads any valid indexing of one
// tree by a preorder walk, keeping every shape check.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/forest.hpp"

namespace dsem::ml {
namespace {

static_assert(sizeof(PackedNode) == 16,
              "a stored tree node is a double and two int32s");

// The walk the interchange form means, over any valid indexing.
double reference_walk(const std::vector<TreeNode>& nodes,
                      std::span<const double> x) {
  std::size_t i = 0;
  while (nodes[i].feature >= 0) {
    const TreeNode& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                              : n.right);
  }
  return nodes[i].value;
}

void expect_same_nodes(const std::vector<TreeNode>& a,
                       const std::vector<TreeNode>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].feature, b[i].feature) << "node " << i;
    ASSERT_EQ(a[i].left, b[i].left) << "node " << i;
    ASSERT_EQ(a[i].right, b[i].right) << "node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].threshold),
              std::bit_cast<std::uint64_t>(b[i].threshold))
        << "node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
              std::bit_cast<std::uint64_t>(b[i].value))
        << "node " << i;
  }
}

std::pair<Matrix, std::vector<double>> random_data(std::uint64_t seed,
                                                   std::size_t n) {
  Rng rng(seed);
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 10.0);
    x(i, 1) = static_cast<double>(rng.uniform_int(5));
    x(i, 2) = rng.uniform(-1.0, 1.0);
    y[i] = std::sin(x(i, 0)) + x(i, 1) * x(i, 2) + 0.1 * rng.uniform();
  }
  return {std::move(x), std::move(y)};
}

DecisionTreeRegressor fitted_tree(std::uint64_t seed) {
  const auto [x, y] = random_data(seed, 300);
  TreeParams params;
  params.seed = seed;
  params.max_features = seed % 2 == 0 ? 2 : 0;
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  return tree;
}

// The same tree with its nodes renumbered by a random permutation that
// keeps the root at index 0.
std::vector<TreeNode> shuffled(const std::vector<TreeNode>& nodes,
                               std::uint64_t seed) {
  std::vector<std::int32_t> to(nodes.size());
  std::iota(to.begin(), to.end(), 0);
  Rng rng(seed);
  for (std::size_t i = to.size(); i > 2; --i) {
    std::swap(to[i - 1], to[1 + rng.uniform_int(i - 1)]);
  }
  std::vector<TreeNode> out(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    TreeNode node = nodes[i];
    if (node.feature >= 0) {
      node.left = to[static_cast<std::size_t>(node.left)];
      node.right = to[static_cast<std::size_t>(node.right)];
    }
    out[static_cast<std::size_t>(to[i])] = node;
  }
  return out;
}

TEST(TreeLayout, FittedTreesAreStoredInPreorder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DecisionTreeRegressor tree = fitted_tree(seed);
    const std::span<const PackedNode> packed = tree.nodes();
    const std::vector<TreeNode> nodes = tree.to_nodes();
    ASSERT_EQ(packed.size(), nodes.size());
    ASSERT_GT(nodes.size(), 31u) << "seed " << seed;
    std::size_t interior = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const TreeNode& node = nodes[i];
      EXPECT_EQ(node.feature, packed[i].feature);
      if (node.feature < 0) {
        EXPECT_EQ(node.left, -1);
        EXPECT_EQ(node.right, -1);
        EXPECT_EQ(node.threshold, 0.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(node.value),
                  std::bit_cast<std::uint64_t>(packed[i].threshold));
        continue;
      }
      ++interior;
      EXPECT_EQ(node.left, static_cast<std::int32_t>(i) + 1);
      EXPECT_EQ(node.right, packed[i].right);
      EXPECT_GT(node.right, node.left);
      EXPECT_TRUE(std::isfinite(node.value));
    }
    // A full binary tree: one more leaf than interior nodes.
    EXPECT_EQ(2 * interior + 1, nodes.size()) << "seed " << seed;
  }
}

TEST(TreeLayout, FromNodesRoundTripsAFittedTree) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DecisionTreeRegressor tree = fitted_tree(seed);
    const std::vector<TreeNode> nodes = tree.to_nodes();
    const DecisionTreeRegressor loaded =
        DecisionTreeRegressor::from_nodes(tree.params(), nodes);
    expect_same_nodes(loaded.to_nodes(), nodes);
    EXPECT_EQ(loaded.depth(), tree.depth());
    EXPECT_EQ(loaded.split_width(), tree.split_width());
  }
}

TEST(TreeLayout, AnyIndexingLoadsAndPredictsLikeItsReferenceWalk) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DecisionTreeRegressor tree = fitted_tree(seed);
    const std::vector<TreeNode> preorder = tree.to_nodes();
    const std::vector<TreeNode> relabeled = shuffled(preorder, seed + 100);
    const DecisionTreeRegressor loaded =
        DecisionTreeRegressor::from_nodes(tree.params(), relabeled);
    // Re-saving a relabeled tree emits it renumbered in preorder.
    expect_same_nodes(loaded.to_nodes(), preorder);
    EXPECT_EQ(loaded.depth(), tree.depth());
    const auto [x, y] = random_data(seed + 200, 200);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const double expected = reference_walk(relabeled, x.row(r));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.predict_one(x.row(r))),
                std::bit_cast<std::uint64_t>(expected))
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(TreeLayout, LeafThresholdsAreNotKept) {
  // A leaf's threshold slot holds its value, so a hand-built leaf's
  // threshold has nowhere to go: it reads back as 0.0, as fit writes it.
  const DecisionTreeRegressor tree = DecisionTreeRegressor::from_nodes(
      {}, {{0, 1.5, 1, 2, 4.0}, {-1, 7.0, -1, -1, 3.0}, {-1, -2.0, -1, -1, 5.0}});
  const std::vector<TreeNode> nodes = tree.to_nodes();
  EXPECT_EQ(nodes[1].threshold, 0.0);
  EXPECT_EQ(nodes[1].value, 3.0);
  EXPECT_EQ(nodes[2].threshold, 0.0);
  EXPECT_EQ(nodes[2].value, 5.0);
  EXPECT_EQ(nodes[0].value, 4.0);
  const std::vector<double> lo = {1.0};
  const std::vector<double> hi = {2.0};
  EXPECT_EQ(tree.predict_one(lo), 3.0);
  EXPECT_EQ(tree.predict_one(hi), 5.0);
}

TEST(TreeLayout, FromNodesKeepsEveryShapeCheck) {
  const auto load = [](const std::vector<TreeNode>& nodes) {
    return DecisionTreeRegressor::from_nodes({}, nodes);
  };
  const TreeNode leaf{-1, 0.0, -1, -1, 1.0};
  EXPECT_THROW(load({}), contract_error);
  // A child index out of range, either side.
  EXPECT_THROW(load({{0, 0.5, 1, 3, 0.0}, leaf, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, -2, 2, 0.0}, leaf, leaf}), contract_error);
  // An interior node missing a child; a leaf with one.
  EXPECT_THROW(load({{0, 0.5, 1, -1, 0.0}, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, {-1, 0.0, 2, -1, 1.0}, leaf}),
               contract_error);
  // A diamond (one node reached twice) and a cycle back to the root.
  EXPECT_THROW(load({{0, 0.5, 1, 1, 0.0}, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, {0, 0.5, 0, 2, 0.0}, leaf}),
               contract_error);
  // A node no walk from the root reaches.
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, leaf, leaf, leaf}), contract_error);
  EXPECT_NO_THROW(load({leaf}));
}

TEST(TreeLayout, ForestPredictionsCheckTheRowWidthOnce) {
  const auto [x, y] = random_data(5, 200);
  ForestParams params;
  params.n_estimators = 8;
  RandomForestRegressor forest(params);
  forest.fit(x, y);
  ASSERT_EQ(forest.split_width(), 3u);
  const std::vector<double> narrow = {1.0, 2.0};
  EXPECT_THROW(forest.predict_one(narrow), contract_error);
  EXPECT_THROW(forest.predict_many(Matrix(4, 2)), contract_error);
  EXPECT_TRUE(forest.predict_many(Matrix(0, 2)).empty());
  EXPECT_THROW(RandomForestRegressor(params).predict_one(x.row(0)),
               contract_error);
}

} // namespace
} // namespace dsem::ml
