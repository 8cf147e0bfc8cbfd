#include "ml/serialize.hpp"

#include <charconv>
#include <optional>

#include "common/error.hpp"

namespace dsem::ml {

namespace {

// 64-bit seeds as decimal strings: a JSON number is a double, which only
// holds integers exactly up to 2^53 — derived per-tree seeds use all 64
// bits.
void write_seed(json::Writer& out, std::uint64_t seed) {
  out.value(std::to_string(seed));
}

std::uint64_t read_seed(json::Reader& in) {
  const std::string s = in.read_string();
  std::uint64_t seed = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), seed, 10);
  DSEM_ENSURE(ec == std::errc() && ptr == s.data() + s.size(),
              "model artifact: malformed seed: " + s);
  return seed;
}

std::int32_t read_int32(json::Reader& in) {
  return json::as_integer<std::int32_t>(in.read_number(),
                                        "model artifact: int32 field");
}

void write_tree(json::Writer& out, const DecisionTreeRegressor& tree) {
  out.begin_object().key("nodes").begin_array();
  for (const TreeNode& node : tree.to_nodes()) {
    out.begin_array()
        .value(node.feature)
        .value(node.threshold)
        .value(node.left)
        .value(node.right)
        .value(node.value)
        .end_array();
  }
  out.end_array().end_object();
}

/// Appends the nodes of one {"nodes": [...]} tree object to `nodes`.
void read_tree(json::Reader& in, std::vector<TreeNode>& nodes) {
  bool found = false;
  in.read_object([&](std::string_view key) {
    if (key != "nodes") {
      in.skip();
      return;
    }
    found = true;
    const auto cell = [&] {
      DSEM_ENSURE(in.next_element(),
                  "model artifact: tree node is not a 5-tuple");
    };
    in.begin_array();
    while (in.next_element()) {
      TreeNode node;
      in.begin_array();
      cell();
      node.feature = read_int32(in);
      cell();
      node.threshold = in.read_number();
      cell();
      node.left = read_int32(in);
      cell();
      node.right = read_int32(in);
      cell();
      node.value = in.read_number();
      DSEM_ENSURE(!in.next_element(),
                  "model artifact: tree node is not a 5-tuple");
      DSEM_ENSURE(node.feature >= -1, "model artifact: bad feature index");
      nodes.push_back(node);
    }
  });
  if (!found) {
    json::missing_key("nodes");
  }
}

/// Every hyperparameter either family stores, as read.
struct StoredParams {
  std::optional<std::int32_t> n_estimators;
  std::optional<std::int32_t> max_depth;
  std::optional<std::int32_t> min_samples_split;
  std::optional<std::int32_t> min_samples_leaf;
  std::optional<std::int32_t> max_features;
  std::optional<bool> bootstrap;
  std::optional<std::uint64_t> seed;
};

StoredParams read_params(json::Reader& in) {
  StoredParams params;
  in.read_object([&](std::string_view key) {
    if (key == "n_estimators") {
      params.n_estimators = read_int32(in);
    } else if (key == "max_depth") {
      params.max_depth = read_int32(in);
    } else if (key == "min_samples_split") {
      params.min_samples_split = read_int32(in);
    } else if (key == "min_samples_leaf") {
      params.min_samples_leaf = read_int32(in);
    } else if (key == "max_features") {
      params.max_features = read_int32(in);
    } else if (key == "bootstrap") {
      params.bootstrap = in.read_bool();
    } else if (key == "seed") {
      params.seed = read_seed(in);
    } else {
      in.skip();
    }
  });
  return params;
}

template <typename T>
const T& required(const std::optional<T>& field, std::string_view key) {
  if (!field) {
    json::missing_key(key);
  }
  return *field;
}

TreeParams tree_params(const StoredParams& stored) {
  TreeParams params;
  params.max_depth = required(stored.max_depth, "max_depth");
  params.min_samples_split =
      required(stored.min_samples_split, "min_samples_split");
  params.min_samples_leaf =
      required(stored.min_samples_leaf, "min_samples_leaf");
  params.max_features = required(stored.max_features, "max_features");
  return params;
}

} // namespace

void write_regressor(json::Writer& out, const Regressor& regressor) {
  if (const auto* forest =
          dynamic_cast<const RandomForestRegressor*>(&regressor)) {
    DSEM_ENSURE(forest->tree_count() > 0,
                "cannot serialize an unfitted RandomForestRegressor");
    const ForestParams& params = forest->params();
    out.begin_object().key("type").value("RandomForest");
    out.key("params").begin_object();
    out.key("n_estimators").value(params.n_estimators);
    out.key("max_depth").value(params.max_depth);
    out.key("min_samples_split").value(params.min_samples_split);
    out.key("min_samples_leaf").value(params.min_samples_leaf);
    out.key("max_features").value(params.max_features);
    out.key("bootstrap").value(params.bootstrap);
    write_seed(out.key("seed"), params.seed);
    out.end_object();
    out.key("trees").begin_array();
    for (std::size_t t = 0; t < forest->tree_count(); ++t) {
      write_tree(out, forest->tree(t));
    }
    out.end_array().end_object();
    return;
  }
  if (const auto* tree =
          dynamic_cast<const DecisionTreeRegressor*>(&regressor)) {
    DSEM_ENSURE(tree->node_count() > 0,
                "cannot serialize an unfitted DecisionTreeRegressor");
    const TreeParams& params = tree->params();
    out.begin_object().key("type").value("DecisionTree");
    out.key("params").begin_object();
    out.key("max_depth").value(params.max_depth);
    out.key("min_samples_split").value(params.min_samples_split);
    out.key("min_samples_leaf").value(params.min_samples_leaf);
    out.key("max_features").value(params.max_features);
    write_seed(out.key("seed"), params.seed);
    out.end_object();
    write_tree(out.key("tree"), *tree);
    out.end_object();
    return;
  }
  throw contract_error("no serialization for regressor family: " +
                       regressor.name());
}

std::size_t split_width(const Regressor& regressor) {
  if (const auto* forest =
          dynamic_cast<const RandomForestRegressor*>(&regressor)) {
    return forest->split_width();
  }
  if (const auto* tree =
          dynamic_cast<const DecisionTreeRegressor*>(&regressor)) {
    return tree->split_width();
  }
  throw contract_error("no split width for regressor family: " +
                       regressor.name());
}

std::unique_ptr<Regressor> read_regressor(json::Reader& in) {
  std::optional<std::string> type;
  std::optional<StoredParams> stored;
  // The trees can come before the params they are built with, so their
  // nodes are read back to back and built once the object is read:
  // "trees" element i spans [forest[i], forest[i + 1]) of `nodes`, and
  // "tree" spans [lone[0], lone[1]).
  std::vector<TreeNode> nodes;
  std::optional<std::vector<std::size_t>> forest;
  std::optional<std::vector<std::size_t>> lone;
  in.read_object([&](std::string_view key) {
    if (key == "type") {
      type = in.read_string();
    } else if (key == "params") {
      stored = read_params(in);
    } else if (key == "trees") {
      forest.emplace(1, nodes.size());
      in.begin_array();
      while (in.next_element()) {
        read_tree(in, nodes);
        forest->push_back(nodes.size());
      }
    } else if (key == "tree") {
      lone.emplace(1, nodes.size());
      read_tree(in, nodes);
      lone->push_back(nodes.size());
    } else {
      in.skip();
    }
  });

  const std::string& family = required(type, "type");
  DSEM_ENSURE(family == "RandomForest" || family == "DecisionTree",
              "unknown serialized regressor type: " + family);
  const StoredParams& params = required(stored, "params");
  const bool is_forest = family == "RandomForest";
  const std::vector<std::size_t>& bounds =
      required(is_forest ? forest : lone, is_forest ? "trees" : "tree");
  TreeParams tp = tree_params(params);
  std::vector<TreeNode> tree_nodes; // one tree at a time, reused
  std::vector<DecisionTreeRegressor> trees;
  trees.reserve(bounds.size() - 1);
  if (!is_forest) {
    tp.seed = required(params.seed, "seed");
  }
  // Restored forest trees carry the forest-level hyperparameters, like
  // fit() hands out; the fit-time per-tree RNG seeds are not part of the
  // fitted model, so the forest round-trips without them.
  for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
    tree_nodes.assign(nodes.begin() + static_cast<std::ptrdiff_t>(bounds[t]),
                      nodes.begin() +
                          static_cast<std::ptrdiff_t>(bounds[t + 1]));
    trees.push_back(DecisionTreeRegressor::from_nodes(tp, tree_nodes));
  }
  if (!is_forest) {
    return std::make_unique<DecisionTreeRegressor>(std::move(trees.front()));
  }
  ForestParams fp;
  fp.n_estimators = required(params.n_estimators, "n_estimators");
  fp.max_depth = tp.max_depth;
  fp.min_samples_split = tp.min_samples_split;
  fp.min_samples_leaf = tp.min_samples_leaf;
  fp.max_features = tp.max_features;
  fp.bootstrap = required(params.bootstrap, "bootstrap");
  fp.seed = required(params.seed, "seed");
  return std::make_unique<RandomForestRegressor>(
      RandomForestRegressor::from_trees(fp, std::move(trees)));
}

} // namespace dsem::ml
