// Property tests for Regressor::predict_sweep: one input's row swept along
// its last column must predict exactly what predict_many predicts on the
// materialized rows, bit for bit — for the forest's one-walk-per-tree
// override and for the base implementation other families inherit.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/forest.hpp"
#include "ml/svr.hpp"

namespace dsem::ml {
namespace {

constexpr std::size_t kPrefix = 3;

// A frequency-curve dataset: a few inputs (the prefix columns) each
// measured at every clock of a schedule (the last column).
std::vector<double> clocks() {
  std::vector<double> out;
  for (double f = 500.0; f <= 1500.0; f += 50.0) {
    out.push_back(f);
  }
  return out;
}

std::pair<Matrix, std::vector<double>> curve_data(std::uint64_t seed,
                                                  std::size_t inputs) {
  Rng rng(seed);
  const std::vector<double> freqs = clocks();
  Matrix x(inputs * freqs.size(), kPrefix + 1);
  std::vector<double> y;
  std::size_t r = 0;
  for (std::size_t i = 0; i < inputs; ++i) {
    const double a = rng.uniform(8.0, 160.0);
    const double b = rng.uniform(2.0, 24.0);
    const double c = rng.uniform(16.0, 1e4);
    for (const double f : freqs) {
      x(r, 0) = a;
      x(r, 1) = b;
      x(r, 2) = c;
      x(r, 3) = f;
      y.push_back(std::log(1.0 + a * b * 1e-2 + c * 1e-3) +
                  0.8 * std::log(1500.0 / f) + 0.05 * rng.uniform());
      ++r;
    }
  }
  return {std::move(x), std::move(y)};
}

Matrix materialize(std::span<const double> prefix,
                   std::span<const double> values) {
  Matrix rows(values.size(), prefix.size() + 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto row = rows.row(i);
    std::copy(prefix.begin(), prefix.end(), row.begin());
    row.back() = values[i];
  }
  return rows;
}

void expect_bit_identical(const std::vector<double>& sweep,
                          const std::vector<double>& many) {
  ASSERT_EQ(sweep.size(), many.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sweep[i]),
              std::bit_cast<std::uint64_t>(many[i]))
        << "value " << i << ": " << sweep[i] << " vs " << many[i];
  }
}

void expect_sweep_matches(const Regressor& model,
                          std::span<const double> prefix,
                          std::span<const double> values) {
  expect_bit_identical(model.predict_sweep(prefix, values),
                       model.predict_many(materialize(prefix, values)));
}

// The first split threshold found on `feature` in any tree, if one exists.
std::optional<double> some_threshold(const RandomForestRegressor& forest,
                                     int feature) {
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    for (const PackedNode& node : forest.tree(t).nodes()) {
      if (node.feature == feature) {
        return node.threshold;
      }
    }
  }
  return std::nullopt;
}

// Sweeps that stress the walk: unsorted with duplicates, a value equal to
// a last-column split threshold, values below and above the training
// clocks, a single value, and non-finite values.
std::vector<std::vector<double>> sweeps(const RandomForestRegressor& forest) {
  const double threshold =
      some_threshold(forest, static_cast<int>(kPrefix)).value_or(1000.0);
  std::vector<double> shuffled = clocks();
  Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
  }
  shuffled.push_back(shuffled[3]);
  shuffled.push_back(shuffled[0]);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      shuffled,
      {threshold, 900.0, threshold, 100.0, 5000.0, 500.0, 1500.0, threshold},
      {1200.0},
      {std::nextafter(threshold, 0.0), threshold,
       std::nextafter(threshold, kInf)},
      {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 700.0, -0.0,
       0.0},
  };
}

// Prefixes: a training input, a point between inputs, and a training input
// with one column moved onto a routing threshold.
std::vector<std::vector<double>> prefixes(const Matrix& x,
                                          const RandomForestRegressor& forest) {
  std::vector<std::vector<double>> out;
  const auto first = x.row(0);
  out.emplace_back(first.begin(), first.begin() + kPrefix);
  const auto last = x.row(x.rows() - 1);
  std::vector<double> between(kPrefix);
  for (std::size_t j = 0; j < kPrefix; ++j) {
    between[j] = 0.5 * (first[j] + last[j]);
  }
  out.push_back(between);
  for (int f = 0; f < static_cast<int>(kPrefix); ++f) {
    if (const auto threshold = some_threshold(forest, f)) {
      std::vector<double> on_split = out.front();
      on_split[static_cast<std::size_t>(f)] = *threshold;
      out.push_back(on_split);
    }
  }
  return out;
}

TEST(PredictSweep, ForestMatchesPredictManyBitForBit) {
  struct Shape {
    int max_depth;
    int max_features;
    bool bootstrap;
  };
  const Shape shapes[] = {
      {0, 0, true}, {4, 0, true}, {0, 2, true}, {6, 1, false}, {0, 0, false}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto [x, y] = curve_data(seed, 12);
    for (const Shape& shape : shapes) {
      ForestParams params;
      params.n_estimators = 24;
      params.max_depth = shape.max_depth;
      params.max_features = shape.max_features;
      params.bootstrap = shape.bootstrap;
      params.seed = seed;
      RandomForestRegressor forest(params);
      forest.fit(x, y);
      ASSERT_TRUE(
          some_threshold(forest, static_cast<int>(kPrefix)).has_value());
      for (const auto& prefix : prefixes(x, forest)) {
        for (const auto& values : sweeps(forest)) {
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " depth " << shape.max_depth
                       << " max_features " << shape.max_features);
          expect_sweep_matches(forest, prefix, values);
        }
      }
    }
  }
}

TEST(PredictSweep, ForestMatchesOnEveryTrainingInput) {
  const auto [x, y] = curve_data(11, 16);
  RandomForestRegressor forest;
  forest.fit(x, y);
  const std::vector<double> values = clocks();
  for (std::size_t r = 0; r < x.rows(); r += values.size()) {
    const auto row = x.row(r);
    expect_sweep_matches(forest, row.first(kPrefix), values);
  }
}

// A hand-built node as an artifact stores it: [feature, threshold, left,
// right, value], in preorder.
struct HandNode {
  int feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;
};

// The walk a node array means, following its explicit child indices.
double reference_walk(const std::vector<HandNode>& nodes,
                      std::span<const double> x) {
  std::size_t i = 0;
  while (nodes[i].feature >= 0) {
    const HandNode& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                              : n.right);
  }
  return nodes[i].value;
}

DecisionTreeRegressor from_hand_nodes(const std::vector<HandNode>& nodes) {
  std::vector<PackedNode> packed;
  std::vector<double> means;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const HandNode& n = nodes[i];
    if (n.feature < 0) {
      packed.push_back({n.value, -1, -1});
      continue;
    }
    EXPECT_EQ(n.left, static_cast<std::int32_t>(i) + 1) << "not preorder";
    packed.push_back({n.threshold, n.feature, n.right});
    means.push_back(n.value);
  }
  return DecisionTreeRegressor::from_preorder({}, std::move(packed),
                                              std::move(means));
}

TEST(PredictSweep, ForestMatchesOnHandBuiltTreesWithRedundantSplits) {
  // Loaded artifacts may hold trees no fit produces: last-column splits
  // that an ancestor's split already decides, infinite thresholds, and a
  // prefix split between last-column forks. Row layout: [p, f].
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<HandNode>> arrays = {
      {{1, 1000.0, 1, 4, 0.0},  // f <= 1000
       {1, 2000.0, 2, 3, 0.0},  // always left under f <= 1000
       {-1, 0.0, -1, -1, 1.0},
       {-1, 0.0, -1, -1, 2.0},  // unreachable
       {1, 500.0, 5, 6, 0.0},   // always right under f > 1000
       {-1, 0.0, -1, -1, 3.0},  // unreachable
       {0, 0.5, 7, 8, 0.0},     // prefix split
       {-1, 0.0, -1, -1, 4.0},
       {1, 1200.0, 9, 10, 0.0},
       {-1, 0.0, -1, -1, 5.0},
       {-1, 0.0, -1, -1, 6.0}},
      {{1, kInf, 1, 4, 0.0},
       {1, -kInf, 2, 3, 0.0},
       {-1, 0.0, -1, -1, 8.0},
       {-1, 0.0, -1, -1, 9.0},
       {-1, 0.0, -1, -1, 7.0}}};
  std::vector<DecisionTreeRegressor> trees;
  for (const auto& nodes : arrays) {
    trees.push_back(from_hand_nodes(nodes));
  }
  const auto forest = RandomForestRegressor::from_trees(
      ForestParams{.n_estimators = 2}, std::move(trees));
  const std::vector<double> values = {
      2500.0, 400.0, 1000.0, 1100.0, 1200.0, 1500.0, -kInf, kInf,
      std::numeric_limits<double>::quiet_NaN(), 1000.0};
  for (const double p : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(testing::Message() << "prefix " << p);
    expect_sweep_matches(forest, std::vector<double>{p}, values);
    // The loaded trees answer what their original arrays mean.
    const Matrix rows = materialize(std::vector<double>{p}, values);
    const std::vector<double> many = forest.predict_many(rows);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      const double a = reference_walk(arrays[0], rows.row(r));
      const double b = reference_walk(arrays[1], rows.row(r));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(forest.tree(0).predict_one(
                    rows.row(r))),
                std::bit_cast<std::uint64_t>(a));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(forest.tree(1).predict_one(
                    rows.row(r))),
                std::bit_cast<std::uint64_t>(b));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(many[r]),
                std::bit_cast<std::uint64_t>((a + b) / 2.0))
          << "row " << r;
    }
  }
}

TEST(PredictSweep, BaseImplementationMatchesPredictMany) {
  const auto [x, y] = curve_data(5, 4);
  SvrRbf svr;
  svr.fit(x, y);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  const std::vector<double> prefix(x.row(0).begin(),
                                   x.row(0).begin() + kPrefix);
  const std::vector<double> values = {1400.0, 500.0, 1400.0, 100.0, 5000.0};
  expect_sweep_matches(svr, prefix, values);
  expect_sweep_matches(tree, prefix, values);
  expect_sweep_matches(svr, prefix, std::vector<double>{900.0});
}

TEST(PredictSweep, EmptySweepPredictsNothing) {
  const auto [x, y] = curve_data(6, 4);
  RandomForestRegressor forest(ForestParams{.n_estimators = 4});
  forest.fit(x, y);
  const std::vector<double> prefix(kPrefix, 1.0);
  EXPECT_TRUE(forest.predict_sweep(prefix, {}).empty());
}

TEST(PredictSweep, RejectsAPrefixNarrowerThanTheSplits) {
  const auto [x, y] = curve_data(8, 6);
  RandomForestRegressor forest(ForestParams{.n_estimators = 4});
  forest.fit(x, y);
  ASSERT_EQ(forest.split_width(), kPrefix + 1);
  const std::vector<double> narrow(kPrefix - 1, 1.0);
  EXPECT_THROW(forest.predict_sweep(narrow, std::vector<double>{900.0}),
               contract_error);
  EXPECT_THROW(forest.predict_one(std::vector<double>(kPrefix, 1.0)),
               contract_error);
}

TEST(PredictSweep, UnfittedForestThrows) {
  const RandomForestRegressor forest;
  EXPECT_THROW(forest.predict_sweep(std::vector<double>(kPrefix, 1.0),
                                    std::vector<double>{900.0}),
               contract_error);
}

} // namespace
} // namespace dsem::ml
