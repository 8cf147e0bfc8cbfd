// The stored tree layout (DESIGN.md §7.10): 16-byte PackedNodes in
// preorder, a left child at its parent's index + 1, leaf values in the
// threshold slot, interior means kept apart. It is the only tree form:
// from_preorder() rebuilds a tree from it in one checked forward pass, and
// artifacts (ml/serialize.hpp) are written from it and read into it, so a
// tree stored in any other indexing raises.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/lasso.hpp"
#include "ml/serialize.hpp"
#include "ml/svr.hpp"

namespace dsem::ml {
namespace {

static_assert(sizeof(PackedNode) == 16,
              "a stored tree node is a double and two int32s");

// One node as an artifact stores it: [feature, threshold, left, right,
// value], any indexing expressible.
struct Tuple {
  std::int32_t feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;
};

// The 5-tuples a save writes for `tree`, read off the stored layout.
std::vector<Tuple> tuples_of(const DecisionTreeRegressor& tree) {
  std::vector<Tuple> out;
  std::size_t interior = 0;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const PackedNode& node = tree.nodes()[i];
    if (node.feature < 0) {
      out.push_back({-1, 0.0, -1, -1, node.threshold});
    } else {
      out.push_back({node.feature, node.threshold,
                     static_cast<std::int32_t>(i + 1), node.right,
                     tree.interior_means()[interior++]});
    }
  }
  return out;
}

// The same tree with node i moved to index to[i].
std::vector<Tuple> relabeled(const std::vector<Tuple>& nodes,
                             const std::vector<std::int32_t>& to) {
  std::vector<Tuple> out(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Tuple node = nodes[i];
    if (node.feature >= 0) {
      node.left = to[static_cast<std::size_t>(node.left)];
      node.right = to[static_cast<std::size_t>(node.right)];
    }
    out[static_cast<std::size_t>(to[i])] = node;
  }
  return out;
}

constexpr ForestParams kOneTree{.n_estimators = 1};

// A one-tree forest document holding `nodes`, written the way
// write_regressor writes a forest.
std::string forest_document(const std::vector<Tuple>& nodes) {
  std::string text;
  json::StringSink sink(text);
  json::Writer out(sink);
  out.begin_object().key("type").value("RandomForest");
  out.key("params").begin_object();
  out.key("n_estimators").value(kOneTree.n_estimators);
  out.key("max_depth").value(kOneTree.max_depth);
  out.key("min_samples_split").value(kOneTree.min_samples_split);
  out.key("min_samples_leaf").value(kOneTree.min_samples_leaf);
  out.key("max_features").value(kOneTree.max_features);
  out.key("bootstrap").value(kOneTree.bootstrap);
  out.key("seed").value(std::to_string(kOneTree.seed));
  out.end_object();
  out.key("trees").begin_array().begin_object().key("nodes").begin_array();
  for (const Tuple& node : nodes) {
    out.begin_array()
        .value(node.feature)
        .value(node.threshold)
        .value(node.left)
        .value(node.right)
        .value(node.value)
        .end_array();
  }
  out.end_array().end_object().end_array().end_object();
  out.flush();
  return text;
}

std::string saved(const Regressor& regressor) {
  std::string text;
  json::StringSink sink(text);
  json::Writer out(sink);
  write_regressor(out, regressor);
  out.flush();
  return text;
}

const DecisionTreeRegressor& loaded_tree(const std::string& text,
                                         std::unique_ptr<Regressor>& keep) {
  json::Reader in(text);
  keep = read_regressor(in);
  in.finish();
  return dynamic_cast<const RandomForestRegressor&>(*keep).tree(0);
}

void expect_same_layout(const DecisionTreeRegressor& a,
                        const DecisionTreeRegressor& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    ASSERT_EQ(a.nodes()[i].feature, b.nodes()[i].feature) << "node " << i;
    ASSERT_EQ(a.nodes()[i].right, b.nodes()[i].right) << "node " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.nodes()[i].threshold),
              std::bit_cast<std::uint64_t>(b.nodes()[i].threshold))
        << "node " << i;
  }
  ASSERT_EQ(a.interior_means().size(), b.interior_means().size());
  for (std::size_t i = 0; i < a.interior_means().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.interior_means()[i]),
              std::bit_cast<std::uint64_t>(b.interior_means()[i]))
        << "mean " << i;
  }
  EXPECT_EQ(a.depth(), b.depth());
  EXPECT_EQ(a.split_width(), b.split_width());
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

DecisionTreeRegressor fitted_tree(std::uint64_t seed, int max_depth = 0) {
  const auto [x, y] = random_data(seed, 300);
  TreeParams params;
  params.seed = seed;
  params.max_features = seed % 2 == 0 ? 2 : 0;
  params.max_depth = max_depth;
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  return tree;
}

TEST(TreeLayout, FittedTreesAreStoredInPreorder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DecisionTreeRegressor tree = fitted_tree(seed);
    const std::span<const PackedNode> nodes = tree.nodes();
    ASSERT_GT(nodes.size(), 31u) << "seed " << seed;
    std::size_t interior = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].feature < 0) {
        EXPECT_EQ(nodes[i].right, -1);
        continue;
      }
      ++interior;
      // The left child is node i + 1, so the right one comes after it.
      EXPECT_GT(nodes[i].right, static_cast<std::int32_t>(i) + 1);
      EXPECT_LT(static_cast<std::size_t>(nodes[i].right), nodes.size());
    }
    ASSERT_EQ(tree.interior_means().size(), interior) << "seed " << seed;
    for (const double mean : tree.interior_means()) {
      EXPECT_TRUE(std::isfinite(mean));
    }
    // A full binary tree: one more leaf than interior nodes.
    EXPECT_EQ(2 * interior + 1, nodes.size()) << "seed " << seed;
  }
}

TEST(TreeLayout, FromPreorderRoundTripsAFittedTree) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DecisionTreeRegressor tree = fitted_tree(seed);
    const DecisionTreeRegressor rebuilt = DecisionTreeRegressor::from_preorder(
        tree.params(), {tree.nodes().begin(), tree.nodes().end()},
        {tree.interior_means().begin(), tree.interior_means().end()});
    expect_same_layout(rebuilt, tree);

    // A save writes the tree's 5-tuples straight from the stored layout,
    // and a load reads them straight back into it.
    std::vector<DecisionTreeRegressor> one;
    one.push_back(tree);
    const auto forest =
        RandomForestRegressor::from_trees(kOneTree, std::move(one));
    const std::string text = saved(forest);
    EXPECT_EQ(text, forest_document(tuples_of(tree))) << "seed " << seed;
    std::unique_ptr<Regressor> keep;
    expect_same_layout(loaded_tree(text, keep), tree);
  }
}

TEST(TreeLayout, EveryRelabelingIsRejected) {
  // Preorder numbers a tree one way only, so any other indexing of the
  // same tree is not preorder, and the load says so. Every relabeling of
  // a seven-node tree, the root's too, then random ones of large trees.
  const DecisionTreeRegressor small = fitted_tree(3, 2);
  const std::vector<Tuple> nodes = tuples_of(small);
  ASSERT_EQ(nodes.size(), 7u);
  const auto expect_rejected = [](const std::vector<Tuple>& mutant) {
    std::unique_ptr<Regressor> keep;
    try {
      loaded_tree(forest_document(mutant), keep);
      ADD_FAILURE() << "a relabeled tree loaded";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("preorder"), std::string::npos)
          << e.what();
    }
  };
  std::vector<std::int32_t> to(nodes.size());
  std::iota(to.begin(), to.end(), 0);
  std::size_t relabelings = 0;
  while (std::next_permutation(to.begin(), to.end())) {
    expect_rejected(relabeled(nodes, to));
    ++relabelings;
  }
  EXPECT_EQ(relabelings, 5039u);

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<Tuple> large = tuples_of(fitted_tree(seed));
    Rng rng(seed + 100);
    for (int draw = 0; draw < 10; ++draw) {
      std::vector<std::int32_t> perm(large.size());
      std::iota(perm.begin(), perm.end(), 0);
      // The root kept at 0: still a tree to walk from index 0, so only
      // the order gives it away.
      for (std::size_t i = perm.size(); i > 2; --i) {
        std::swap(perm[i - 1], perm[1 + rng.uniform_int(i - 1)]);
      }
      if (!std::is_sorted(perm.begin(), perm.end())) {
        expect_rejected(relabeled(large, perm));
      }
    }
  }
}

TEST(TreeLayout, LeafThresholdsAreNotKept) {
  // A leaf's threshold slot holds its value, so a stored leaf threshold
  // has nowhere to go: it reads back as 0.0, as fit writes it.
  const std::string text = forest_document({{0, 1.5, 1, 2, 4.0},
                                            {-1, 7.0, -1, -1, 3.0},
                                            {-1, -2.0, -1, -1, 5.0}});
  std::unique_ptr<Regressor> keep;
  const DecisionTreeRegressor& tree = loaded_tree(text, keep);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.nodes()[1].threshold, 3.0);
  EXPECT_EQ(tree.nodes()[2].threshold, 5.0);
  ASSERT_EQ(tree.interior_means().size(), 1u);
  EXPECT_EQ(tree.interior_means()[0], 4.0);
  const std::vector<double> lo = {1.0};
  const std::vector<double> hi = {2.0};
  EXPECT_EQ(tree.predict_one(lo), 3.0);
  EXPECT_EQ(tree.predict_one(hi), 5.0);
  EXPECT_EQ(saved(*keep), forest_document({{0, 1.5, 1, 2, 4.0},
                                           {-1, 0.0, -1, -1, 3.0},
                                           {-1, 0.0, -1, -1, 5.0}}));
}

TEST(TreeLayout, FromPreorderKeepsEveryShapeCheck) {
  const auto build = [](std::vector<PackedNode> nodes,
                        std::vector<double> means) {
    return DecisionTreeRegressor::from_preorder({}, std::move(nodes),
                                                std::move(means));
  };
  const PackedNode leaf{1.0, -1, -1};
  EXPECT_THROW(build({}, {}), contract_error);
  // A right child out of range, either side, or missing.
  EXPECT_THROW(build({{0.5, 0, 3}, leaf, leaf}, {0.0}), contract_error);
  EXPECT_THROW(build({{0.5, 0, -2}, leaf, leaf}, {0.0}), contract_error);
  EXPECT_THROW(build({{0.5, 0, -1}, leaf}, {0.0}), contract_error);
  // A leaf with a right child; a feature below -1.
  EXPECT_THROW(build({{0.5, 0, 2}, {1.0, -1, 2}, leaf}, {0.0}),
               contract_error);
  EXPECT_THROW(build({{0.5, -2, -1}}, {}), contract_error);
  // A right child pointing back at its left sibling, or at the root.
  EXPECT_THROW(build({{0.5, 0, 1}, leaf}, {0.0}), contract_error);
  EXPECT_THROW(build({{0.5, 0, 2}, {0.5, 0, 0}, leaf, leaf, leaf},
                     {0.0, 0.0}),
               contract_error);
  // Nodes past the end of the tree; a tree past the end of the array.
  EXPECT_THROW(build({{0.5, 0, 2}, leaf, leaf, leaf}, {0.0}), contract_error);
  EXPECT_THROW(build({{0.5, 0, 2}, leaf}, {0.0}), contract_error);
  // Not one mean per interior node.
  EXPECT_THROW(build({{0.5, 0, 2}, leaf, leaf}, {}), contract_error);
  EXPECT_THROW(build({{0.5, 0, 2}, leaf, leaf}, {0.0, 0.0}), contract_error);
  EXPECT_THROW(build({leaf}, {0.0}), contract_error);
  EXPECT_NO_THROW(build({leaf}, {}));
  const DecisionTreeRegressor tree =
      build({{0.5, 0, 4}, {0.5, 2, 3}, leaf, leaf, leaf}, {0.0, 0.0});
  EXPECT_EQ(tree.depth(), 2);
  EXPECT_EQ(tree.split_width(), 3u);
}

TEST(TreeLayout, ReaderKeepsEveryShapeCheck) {
  const auto load = [](const std::vector<Tuple>& nodes) {
    std::unique_ptr<Regressor> keep;
    loaded_tree(forest_document(nodes), keep);
  };
  const Tuple leaf{-1, 0.0, -1, -1, 1.0};
  EXPECT_THROW(load({}), contract_error);
  // A child index out of range, either side.
  EXPECT_THROW(load({{0, 0.5, 1, 3, 0.0}, leaf, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, -2, 2, 0.0}, leaf, leaf}), contract_error);
  // An interior node missing a child; a leaf with one.
  EXPECT_THROW(load({{0, 0.5, 1, -1, 0.0}, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, {-1, 0.0, 2, -1, 1.0}, leaf}),
               contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, {-1, 0.0, -1, 2, 1.0}, leaf}),
               contract_error);
  // A feature below -1.
  EXPECT_THROW(load({{-2, 0.0, -1, -1, 1.0}}), contract_error);
  // A diamond (one node reached twice) and a cycle back to the root.
  EXPECT_THROW(load({{0, 0.5, 1, 1, 0.0}, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, {0, 0.5, 0, 2, 0.0}, leaf}),
               contract_error);
  // A node no walk from the root reaches; a right child past the end.
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, leaf, leaf, leaf}), contract_error);
  EXPECT_THROW(load({{0, 0.5, 1, 2, 0.0}, leaf}), contract_error);
  EXPECT_NO_THROW(load({leaf}));
  EXPECT_NO_THROW(load({{0, 0.5, 1, 2, 0.0}, leaf, leaf}));
}

TEST(TreeLayout, DeepTreeChecksWithoutRecursion) {
  // A right-leaning chain 100000 levels deep: the shape check is one loop
  // with an explicit stack, not a descent per level.
  constexpr std::int32_t kLevels = 100000;
  std::vector<PackedNode> nodes;
  for (std::int32_t level = 0; level < kLevels; ++level) {
    const auto at = static_cast<std::int32_t>(nodes.size());
    nodes.push_back({static_cast<double>(level), 0, at + 2});
    nodes.push_back({static_cast<double>(level), -1, -1});
  }
  nodes.push_back({-1.0, -1, -1});
  const DecisionTreeRegressor tree = DecisionTreeRegressor::from_preorder(
      {}, std::move(nodes), std::vector<double>(kLevels, 0.0));
  EXPECT_EQ(tree.depth(), kLevels);
  EXPECT_EQ(tree.node_count(), 2u * kLevels + 1);
  EXPECT_EQ(tree.predict_one(std::vector<double>{0.0}), 0.0);
  EXPECT_EQ(tree.predict_one(std::vector<double>{1e9}), -1.0);
}

TEST(TreeLayout, OnlyForestsSerialize) {
  // A lone tree is a forest's building block, never an artifact: it has
  // no serialization, like SVR and Lasso, and a "DecisionTree" document
  // does not load.
  const auto [x, y] = random_data(7, 100);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  SvrRbf svr;
  svr.fit(x, y);
  LassoRegressor lasso;
  lasso.fit(x, y);
  for (const Regressor* model :
       std::initializer_list<const Regressor*>{&tree, &svr, &lasso}) {
    std::string text;
    json::StringSink sink(text);
    json::Writer out(sink);
    EXPECT_THROW(write_regressor(out, *model), contract_error)
        << model->name();
    out.flush();
    EXPECT_TRUE(text.empty()) << model->name();
    EXPECT_THROW(split_width(*model), contract_error) << model->name();
  }
  std::string doc = forest_document(tuples_of(tree));
  doc.replace(doc.find("RandomForest"), 12, "DecisionTree");
  json::Reader in(doc);
  EXPECT_THROW(read_regressor(in), contract_error);
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
