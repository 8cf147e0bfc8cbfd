// Behavioural tests for all four regression algorithms on synthetic data
// with known structure, plus the StandardScaler.
#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "ml/forest.hpp"
#include "ml/lasso.hpp"
#include "ml/linear.hpp"
#include "ml/svr.hpp"

namespace dsem::ml {
namespace {

/// y = 3 x0 - 2 x1 + 5 (+ optional noise).
std::pair<Matrix, std::vector<double>> linear_data(std::size_t n,
                                                   double noise_sigma,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-5.0, 5.0);
    x(i, 1) = rng.uniform(-5.0, 5.0);
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + 5.0 +
           (noise_sigma > 0.0 ? rng.normal(0.0, noise_sigma) : 0.0);
  }
  return {std::move(x), std::move(y)};
}

/// y = sin(2 x0) + 0.5 x1 (nonlinear).
std::pair<Matrix, std::vector<double>> nonlinear_data(std::size_t n,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = rng.uniform(-2.0, 2.0);
    y[i] = std::sin(2.0 * x(i, 0)) + 0.5 * x(i, 1);
  }
  return {std::move(x), std::move(y)};
}

// --- StandardScaler ----------------------------------------------------------

TEST(StandardScaler, ZeroMeanUnitVariance) {
  const auto [x, y] = linear_data(500, 0.0, 1);
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix xs = scaler.transform(x);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < xs.rows(); ++i) {
      mean += xs(i, j);
    }
    mean /= static_cast<double>(xs.rows());
    EXPECT_NEAR(mean, 0.0, 1e-10);
    double var = 0.0;
    for (std::size_t i = 0; i < xs.rows(); ++i) {
      var += xs(i, j) * xs(i, j);
    }
    var /= static_cast<double>(xs.rows());
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(StandardScaler, ConstantFeaturePassesThrough) {
  Matrix x = Matrix::from_rows({{1.0, 7.0}, {2.0, 7.0}, {3.0, 7.0}});
  StandardScaler scaler;
  scaler.fit(x);
  const auto t = scaler.transform_one(std::vector<double>{2.0, 7.0});
  EXPECT_NEAR(t[1], 0.0, 1e-12); // (7 - 7) / 1
}

TEST(StandardScaler, UseBeforeFitThrows) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform_one(std::vector<double>{1.0}),
               dsem::contract_error);
}

// --- Linear -------------------------------------------------------------------

TEST(LinearRegressor, RecoversExactCoefficients) {
  const auto [x, y] = linear_data(100, 0.0, 2);
  LinearRegressor model;
  model.fit(x, y);
  ASSERT_EQ(model.coefficients().size(), 2u);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-6);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-6);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-6);
}

TEST(LinearRegressor, RobustToNoise) {
  const auto [x, y] = linear_data(2000, 0.5, 3);
  LinearRegressor model;
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 0.05);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 0.05);
}

TEST(LinearRegressor, PredictBeforeFitThrows) {
  LinearRegressor model;
  EXPECT_THROW(model.predict_one(std::vector<double>{1.0}),
               dsem::contract_error);
}

TEST(LinearRegressor, PredictMatchesFitDimensions) {
  const auto [x, y] = linear_data(50, 0.0, 4);
  LinearRegressor model;
  model.fit(x, y);
  EXPECT_THROW(model.predict_one(std::vector<double>{1.0}),
               dsem::contract_error);
}

TEST(LinearRegressor, CloneIsUnfittedWithSameParams) {
  const auto [x, y] = linear_data(50, 0.0, 5);
  LinearRegressor model;
  model.fit(x, y);
  auto clone = model.clone();
  EXPECT_EQ(clone->name(), "Linear");
  EXPECT_THROW(clone->predict_one(std::vector<double>{1.0, 2.0}),
               dsem::contract_error);
}

// --- Lasso --------------------------------------------------------------------

TEST(LassoRegressor, ZeroAlphaMatchesLeastSquares) {
  const auto [x, y] = linear_data(200, 0.0, 6);
  LassoRegressor model(0.0);
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-3);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-3);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-2);
}

TEST(LassoRegressor, StrongPenaltyShrinksToIntercept) {
  const auto [x, y] = linear_data(200, 0.0, 7);
  LassoRegressor model(1e6);
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 0.0, 1e-9);
  EXPECT_NEAR(model.coefficients()[1], 0.0, 1e-9);
  EXPECT_NEAR(model.intercept(), stats::mean(y), 1e-9);
}

TEST(LassoRegressor, SelectsInformativeFeature) {
  // x1 is pure noise; moderate alpha should zero it while keeping x0.
  Rng rng(8);
  Matrix x(300, 2);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform(-5.0, 5.0);
    x(i, 1) = rng.uniform(-5.0, 5.0);
    y[i] = 4.0 * x(i, 0) + rng.normal(0.0, 0.1);
  }
  LassoRegressor model(0.5);
  model.fit(x, y);
  EXPECT_GT(std::abs(model.coefficients()[0]), 3.0);
  EXPECT_NEAR(model.coefficients()[1], 0.0, 0.05);
}

TEST(LassoRegressor, RejectsNegativeAlpha) {
  EXPECT_THROW(LassoRegressor(-1.0), dsem::contract_error);
}

// --- SVR ----------------------------------------------------------------------

TEST(SvrRbf, FitsNonlinearFunction) {
  const auto [x, y] = nonlinear_data(400, 9);
  SvrRbf model(100.0, 0.01, 1.0, 400);
  model.fit(x, y);
  const auto pred = model.predict(x);
  EXPECT_LT(stats::rmse(y, pred), 0.08);
}

TEST(SvrRbf, EpsilonTubeLimitsSupportVectors) {
  const auto [x, y] = linear_data(200, 0.0, 10);
  SvrRbf tight(10.0, 1e-4, 0.5, 200);
  SvrRbf loose(10.0, 5.0, 0.5, 200);
  tight.fit(x, y);
  loose.fit(x, y);
  EXPECT_LT(loose.support_vector_count(), tight.support_vector_count());
}

TEST(SvrRbf, InterpolatesBetweenTrainingPoints) {
  const auto [x, y] = nonlinear_data(500, 11);
  SvrRbf model(100.0, 0.01, 1.0, 400);
  model.fit(x, y);
  Rng rng(12);
  double err = 0.0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const std::vector<double> q = {rng.uniform(-1.5, 1.5),
                                   rng.uniform(-1.5, 1.5)};
    const double truth = std::sin(2.0 * q[0]) + 0.5 * q[1];
    err += std::abs(model.predict_one(q) - truth);
  }
  EXPECT_LT(err / n, 0.1);
}

TEST(SvrRbf, RejectsBadHyperparameters) {
  EXPECT_THROW(SvrRbf(-1.0), dsem::contract_error);
  EXPECT_THROW(SvrRbf(1.0, -0.1), dsem::contract_error);
  EXPECT_THROW(SvrRbf(1.0, 0.1, 0.0), dsem::contract_error);
}

// --- Decision tree --------------------------------------------------------------

TEST(DecisionTree, FitsPiecewiseConstantExactly) {
  // Step function: perfectly representable by one split.
  Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? 1.0 : 9.0;
  }
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{10.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{90.0}), 9.0);
}

TEST(DecisionTree, MaxDepthBoundsTreeDepth) {
  const auto [x, y] = nonlinear_data(500, 13);
  TreeParams params;
  params.max_depth = 3;
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const auto [x, y] = nonlinear_data(100, 14);
  TreeParams params;
  params.min_samples_leaf = 20;
  DecisionTreeRegressor tree(params);
  tree.fit(x, y);
  // With >= 20 samples per leaf, at most 5 leaves -> at most 9 nodes.
  EXPECT_LE(tree.node_count(), 9u);
}

TEST(DecisionTree, ConstantTargetYieldsSingleLeaf) {
  Matrix x(50, 2);
  std::vector<double> y(50, 3.14);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict_one(std::vector<double>{0.0, 0.0}), 3.14, 1e-12);
}

TEST(DecisionTree, DeepTreeMemorizesTrainingData) {
  const auto [x, y] = nonlinear_data(200, 15);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  const auto pred = tree.predict(x);
  EXPECT_LT(stats::rmse(y, pred), 1e-9);
}

TEST(DecisionTree, RejectsBadParams) {
  TreeParams params;
  params.min_samples_split = 1;
  EXPECT_THROW(DecisionTreeRegressor tree(params), dsem::contract_error);
}

// Every fit sorts its features by value, and a NaN has no place in that
// order: a tree or forest fit must refuse NaN and ±inf in X and in y
// instead of returning a model fitted on them.
void expect_fit_rejects_non_finite(const Regressor& prototype) {
  const auto [x, y] = nonlinear_data(60, 19);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix bad_x = x;
    bad_x(17, 1) = bad;
    EXPECT_THROW(prototype.clone()->fit(bad_x, y), dsem::contract_error)
        << "X holds " << bad;
    std::vector<double> bad_y = y;
    bad_y[41] = bad;
    EXPECT_THROW(prototype.clone()->fit(x, bad_y), dsem::contract_error)
        << "y holds " << bad;
  }
}

TEST(DecisionTree, RejectsNonFiniteTrainingData) {
  expect_fit_rejects_non_finite(DecisionTreeRegressor{});
}

// --- Random forest ---------------------------------------------------------------

TEST(RandomForest, FitsNonlinearFunctionWell) {
  const auto [x, y] = nonlinear_data(600, 16);
  ForestParams params;
  params.n_estimators = 50;
  RandomForestRegressor forest(params);
  forest.fit(x, y);
  const auto pred = forest.predict(x);
  EXPECT_LT(stats::rmse(y, pred), 0.1);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  const auto [x, y] = nonlinear_data(200, 17);
  ForestParams params;
  params.n_estimators = 20;
  params.seed = 77;
  RandomForestRegressor a(params);
  RandomForestRegressor b(params);
  a.fit(x, y);
  b.fit(x, y);
  for (std::size_t i = 0; i < 20; ++i) {
    const std::vector<double> q = {static_cast<double>(i) * 0.1 - 1.0, 0.3};
    EXPECT_DOUBLE_EQ(a.predict_one(q), b.predict_one(q));
  }
}

TEST(RandomForest, DifferentSeedsGiveDifferentForests) {
  const auto [x, y] = nonlinear_data(200, 18);
  ForestParams pa;
  pa.n_estimators = 10;
  pa.seed = 1;
  ForestParams pb = pa;
  pb.seed = 2;
  RandomForestRegressor a(pa);
  RandomForestRegressor b(pb);
  a.fit(x, y);
  b.fit(x, y);
  bool any_diff = false;
  for (int i = 0; i < 20 && !any_diff; ++i) {
    const std::vector<double> q = {i * 0.15 - 1.5, -0.4};
    any_diff = a.predict_one(q) != b.predict_one(q);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, SmoothsComparedToSingleTree) {
  // Forest generalizes better than one fully-grown tree on noisy data.
  Rng rng(19);
  Matrix x(300, 1);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.uniform(-3.0, 3.0);
    y[i] = std::sin(x(i, 0)) + rng.normal(0.0, 0.3);
  }
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  ForestParams params;
  params.n_estimators = 60;
  RandomForestRegressor forest(params);
  forest.fit(x, y);

  double tree_err = 0.0;
  double forest_err = 0.0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> q = {rng.uniform(-3.0, 3.0)};
    const double truth = std::sin(q[0]);
    tree_err += std::abs(tree.predict_one(q) - truth);
    forest_err += std::abs(forest.predict_one(q) - truth);
  }
  EXPECT_LT(forest_err, tree_err);
}

TEST(RandomForest, TreeCountMatchesParams) {
  const auto [x, y] = nonlinear_data(50, 20);
  ForestParams params;
  params.n_estimators = 7;
  RandomForestRegressor forest(params);
  forest.fit(x, y);
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_THROW(forest.predict_one(std::vector<double>{1.0}),
               dsem::contract_error);
}

TEST(RandomForest, RejectsNonFiniteTrainingData) {
  ForestParams params;
  params.n_estimators = 4;
  expect_fit_rejects_non_finite(RandomForestRegressor(params));
}

TEST(RandomForest, WithoutBootstrapAndAllFeaturesTreesAgree) {
  const auto [x, y] = nonlinear_data(100, 21);
  ForestParams params;
  params.n_estimators = 5;
  params.bootstrap = false;
  params.max_features = 0;
  RandomForestRegressor forest(params);
  forest.fit(x, y);
  // All trees see identical data and all features: identical predictions.
  const std::vector<double> q = {0.5, -0.5};
  const double p0 = forest.tree(0).predict_one(q);
  for (std::size_t t = 1; t < forest.tree_count(); ++t) {
    EXPECT_DOUBLE_EQ(forest.tree(t).predict_one(q), p0);
  }
}

} // namespace
} // namespace dsem::ml
