#include "ml/serialize.hpp"

#include <charconv>

#include "common/error.hpp"

namespace dsem::ml {

namespace {

// 64-bit seeds as decimal strings: a JSON number is a double, which only
// holds integers exactly up to 2^53 — derived per-tree seeds use all 64
// bits.
json::Value seed_to_json(std::uint64_t seed) {
  return json::Value(std::to_string(seed));
}

std::uint64_t seed_from_json(const json::Value& value) {
  const std::string& s = value.as_string();
  std::uint64_t seed = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), seed, 10);
  DSEM_ENSURE(ec == std::errc() && ptr == s.data() + s.size(),
              "model artifact: malformed seed: " + s);
  return seed;
}

std::int32_t int32_field(const json::Value& value) {
  return json::as_integer<std::int32_t>(value, "model artifact: int32 field");
}

json::Value tree_to_json(const DecisionTreeRegressor& tree) {
  auto nodes = json::Value::array();
  for (const TreeNode& node : tree.to_nodes()) {
    auto row = json::Value::array();
    row.push_back(node.feature);
    row.push_back(node.threshold);
    row.push_back(node.left);
    row.push_back(node.right);
    row.push_back(node.value);
    nodes.push_back(std::move(row));
  }
  auto out = json::Value::object();
  out.set("nodes", std::move(nodes));
  return out;
}

DecisionTreeRegressor tree_from_json(TreeParams params,
                                     const json::Value& value) {
  const json::Value::Array& rows = value.at("nodes").as_array();
  std::vector<TreeNode> nodes;
  nodes.reserve(rows.size());
  for (const json::Value& row : rows) {
    const json::Value::Array& cells = row.as_array();
    DSEM_ENSURE(cells.size() == 5,
                "model artifact: tree node is not a 5-tuple");
    TreeNode node;
    node.feature = int32_field(cells[0]);
    node.threshold = cells[1].as_number();
    node.left = int32_field(cells[2]);
    node.right = int32_field(cells[3]);
    node.value = cells[4].as_number();
    DSEM_ENSURE(node.feature >= -1, "model artifact: bad feature index");
    nodes.push_back(node);
  }
  return DecisionTreeRegressor::from_nodes(params, nodes);
}

json::Value tree_params_to_json(const TreeParams& params) {
  auto out = json::Value::object();
  out.set("max_depth", params.max_depth);
  out.set("min_samples_split", params.min_samples_split);
  out.set("min_samples_leaf", params.min_samples_leaf);
  out.set("max_features", params.max_features);
  out.set("seed", seed_to_json(params.seed));
  return out;
}

TreeParams tree_params_from_json(const json::Value& value) {
  TreeParams params;
  params.max_depth = int32_field(value.at("max_depth"));
  params.min_samples_split = int32_field(value.at("min_samples_split"));
  params.min_samples_leaf = int32_field(value.at("min_samples_leaf"));
  params.max_features = int32_field(value.at("max_features"));
  params.seed = seed_from_json(value.at("seed"));
  return params;
}

json::Value forest_to_json(const RandomForestRegressor& forest) {
  DSEM_ENSURE(forest.tree_count() > 0,
              "cannot serialize an unfitted RandomForestRegressor");
  const ForestParams& params = forest.params();
  auto params_json = json::Value::object();
  params_json.set("n_estimators", params.n_estimators);
  params_json.set("max_depth", params.max_depth);
  params_json.set("min_samples_split", params.min_samples_split);
  params_json.set("min_samples_leaf", params.min_samples_leaf);
  params_json.set("max_features", params.max_features);
  params_json.set("bootstrap", params.bootstrap);
  params_json.set("seed", seed_to_json(params.seed));

  auto trees = json::Value::array();
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    trees.push_back(tree_to_json(forest.tree(t)));
  }

  auto out = json::Value::object();
  out.set("type", "RandomForest");
  out.set("params", std::move(params_json));
  out.set("trees", std::move(trees));
  return out;
}

std::unique_ptr<Regressor> forest_from_json(const json::Value& value) {
  const json::Value& params_json = value.at("params");
  ForestParams params;
  params.n_estimators = int32_field(params_json.at("n_estimators"));
  params.max_depth = int32_field(params_json.at("max_depth"));
  params.min_samples_split = int32_field(params_json.at("min_samples_split"));
  params.min_samples_leaf = int32_field(params_json.at("min_samples_leaf"));
  params.max_features = int32_field(params_json.at("max_features"));
  params.bootstrap = params_json.at("bootstrap").as_bool();
  params.seed = seed_from_json(params_json.at("seed"));

  // Restored trees carry the forest-level hyperparameters, like fit()
  // hands out; the fit-time per-tree RNG seeds are not part of the fitted
  // model, so the forest round-trips without them.
  TreeParams tp;
  tp.max_depth = params.max_depth;
  tp.min_samples_split = params.min_samples_split;
  tp.min_samples_leaf = params.min_samples_leaf;
  tp.max_features = params.max_features;

  const json::Value::Array& trees_json = value.at("trees").as_array();
  std::vector<DecisionTreeRegressor> trees;
  trees.reserve(trees_json.size());
  for (const json::Value& tree : trees_json) {
    trees.push_back(tree_from_json(tp, tree));
  }
  return std::make_unique<RandomForestRegressor>(
      RandomForestRegressor::from_trees(params, std::move(trees)));
}

} // namespace

json::Value regressor_to_json(const Regressor& regressor) {
  if (const auto* forest =
          dynamic_cast<const RandomForestRegressor*>(&regressor)) {
    return forest_to_json(*forest);
  }
  if (const auto* tree =
          dynamic_cast<const DecisionTreeRegressor*>(&regressor)) {
    DSEM_ENSURE(tree->node_count() > 0,
                "cannot serialize an unfitted DecisionTreeRegressor");
    auto out = json::Value::object();
    out.set("type", "DecisionTree");
    out.set("params", tree_params_to_json(tree->params()));
    out.set("tree", tree_to_json(*tree));
    return out;
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

std::unique_ptr<Regressor> regressor_from_json(const json::Value& value) {
  const std::string& type = value.at("type").as_string();
  if (type == "RandomForest") {
    return forest_from_json(value);
  }
  if (type == "DecisionTree") {
    return std::make_unique<DecisionTreeRegressor>(tree_from_json(
        tree_params_from_json(value.at("params")), value.at("tree")));
  }
  throw contract_error("unknown serialized regressor type: " + type);
}

} // namespace dsem::ml
