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

// An interior node is written as [feature, threshold, i + 1, right, mean],
// a leaf as [-1, 0.0, -1, -1, value].
void write_tree(json::Writer& out, const DecisionTreeRegressor& tree) {
  const std::span<const PackedNode> nodes = tree.nodes();
  const double* mean = tree.interior_means().data();
  out.begin_object().key("nodes").begin_array();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PackedNode& node = nodes[i];
    out.begin_array();
    if (node.feature < 0) {
      out.value(-1).value(0.0).value(-1).value(-1).value(node.threshold);
    } else {
      out.value(node.feature)
          .value(node.threshold)
          .value(i + 1)
          .value(node.right)
          .value(*mean++);
    }
    out.end_array();
  }
  out.end_array().end_object();
}

/// One tree as read, kept until its params are known.
struct StoredTree {
  std::vector<PackedNode> nodes;
  std::vector<double> interior_means;
};

/// Reads one {"nodes": [...]} tree object straight into the stored
/// layout. Only preorder loads: an interior node's left child must be the
/// next node and a leaf has none; DecisionTreeRegressor::from_preorder
/// checks the rest. A leaf's threshold cell is ignored.
StoredTree read_tree(json::Reader& in) {
  StoredTree tree;
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
      PackedNode node;
      in.begin_array();
      cell();
      node.feature = read_int32(in);
      cell();
      node.threshold = in.read_number();
      cell();
      const std::int32_t left = read_int32(in);
      cell();
      node.right = read_int32(in);
      cell();
      const double value = in.read_number();
      DSEM_ENSURE(!in.next_element(),
                  "model artifact: tree node is not a 5-tuple");
      const auto next = static_cast<std::int64_t>(tree.nodes.size()) + 1;
      if (node.feature >= 0) {
        DSEM_ENSURE(left == next,
                    "model artifact: tree is not in preorder (a left child "
                    "is not the node after its parent)");
        tree.interior_means.push_back(value);
      } else {
        DSEM_ENSURE(left == -1, "model artifact: leaf with a left child");
        node.threshold = value;
      }
      tree.nodes.push_back(node);
    }
  });
  if (!found) {
    json::missing_key("nodes");
  }
  return tree;
}

/// Every hyperparameter a forest stores, as read.
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
  throw contract_error("no serialization for regressor family: " +
                       regressor.name());
}

std::size_t split_width(const Regressor& regressor) {
  if (const auto* forest =
          dynamic_cast<const RandomForestRegressor*>(&regressor)) {
    return forest->split_width();
  }
  throw contract_error("no split width for regressor family: " +
                       regressor.name());
}

std::unique_ptr<Regressor> read_regressor(json::Reader& in) {
  std::optional<std::string> type;
  std::optional<StoredParams> stored;
  // The trees can come before the params they are built with, so each is
  // kept in its own arrays and built once the object is read.
  std::optional<std::vector<StoredTree>> stored_trees;
  in.read_object([&](std::string_view key) {
    if (key == "type") {
      type = in.read_string();
    } else if (key == "params") {
      stored = read_params(in);
    } else if (key == "trees") {
      stored_trees.emplace();
      in.begin_array();
      while (in.next_element()) {
        stored_trees->push_back(read_tree(in));
      }
    } else {
      in.skip();
    }
  });

  const std::string& family = required(type, "type");
  DSEM_ENSURE(family == "RandomForest",
              "unknown serialized regressor type: " + family);
  const StoredParams& params = required(stored, "params");
  if (!stored_trees) {
    json::missing_key("trees");
  }
  const TreeParams tp = tree_params(params);
  std::vector<DecisionTreeRegressor> trees;
  trees.reserve(stored_trees->size());
  // Restored forest trees carry the forest-level hyperparameters, like
  // fit() hands out; the fit-time per-tree RNG seeds are not part of the
  // fitted model, so the forest round-trips without them.
  for (StoredTree& tree : *stored_trees) {
    trees.push_back(DecisionTreeRegressor::from_preorder(
        tp, std::move(tree.nodes), std::move(tree.interior_means)));
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
