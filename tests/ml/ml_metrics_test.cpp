// Metrics contract of the ML training instrumentation (ISSUE 6 satellite):
// tree node/depth histograms and the SVR support-vector gauge record what
// the fit actually produced, and the deterministic JSON view of a metered
// forest + SVR fit is bit-identical for pools of 1, 2 and 8 workers — the
// counts are properties of the fitted models, not of scheduling. Timers
// and the gauge are kWallClock and must stay out of that view.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/forest.hpp"
#include "ml/svr.hpp"

namespace dsem::ml {
namespace {

class MlMetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    metrics::set_enabled(false);
    metrics::Registry::global().clear();
  }
  void TearDown() override {
    metrics::set_enabled(false);
    metrics::Registry::global().clear();
  }
};

std::pair<Matrix, std::vector<double>> training_data(std::size_t n) {
  Rng rng(11);
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.uniform(0.0, 5.0);
    }
    y[i] = x(i, 0) - 2.0 * x(i, 1) + 0.5 * x(i, 2) * x(i, 2);
  }
  return {std::move(x), std::move(y)};
}

/// Fits a small forest and SVR on a pool of `threads` workers and returns
/// the deterministic metrics JSON they recorded.
std::string metered_fit(std::size_t threads) {
  metrics::Registry::global().clear();
  metrics::set_enabled(true);
  {
    const auto [x, y] = training_data(400);
    ScopedGlobalPool pool(threads);

    ForestParams fp;
    fp.n_estimators = 12;
    RandomForestRegressor forest(fp);
    forest.fit(x, y);

    SvrRbf svr(100.0, 0.01, 1.0, 50, 1e-5);
    svr.fit(x, y);
  }
  const std::string out = metrics::Registry::global()
                              .snapshot()
                              .to_json(/*deterministic_only=*/true)
                              .dump(2);
  metrics::set_enabled(false);
  metrics::Registry::global().clear();
  return out;
}

TEST_F(MlMetricsTest, GoldenDeterministicJsonIdenticalAcrossPoolSizes) {
  const std::string serial = metered_fit(1);

  // The deterministic view carries the per-tree shape histograms...
  EXPECT_NE(serial.find("ml.tree.nodes"), std::string::npos) << serial;
  EXPECT_NE(serial.find("ml.tree.depth"), std::string::npos) << serial;
  // ...and none of the wall-clock instruments (timers, sv gauge, pool).
  EXPECT_EQ(serial.find("ml.forest.fit_s"), std::string::npos) << serial;
  EXPECT_EQ(serial.find("ml.svr.fit_s"), std::string::npos) << serial;
  EXPECT_EQ(serial.find("ml.svr.support_vectors"), std::string::npos)
      << serial;
  EXPECT_EQ(serial.find("pool."), std::string::npos) << serial;

  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, metered_fit(threads)) << "pool size " << threads;
  }
}

TEST_F(MlMetricsTest, FitTimersAndGaugeAppearInFullView) {
  metrics::set_enabled(true);
  const auto [x, y] = training_data(200);

  ForestParams fp;
  fp.n_estimators = 4;
  RandomForestRegressor forest(fp);
  forest.fit(x, y);
  SvrRbf svr(100.0, 0.01, 1.0, 50);
  svr.fit(x, y);

  const std::string full = metrics::Registry::global()
                               .snapshot()
                               .to_json(/*deterministic_only=*/false)
                               .dump(2);
  EXPECT_NE(full.find("ml.forest.fit_s"), std::string::npos);
  EXPECT_NE(full.find("ml.svr.fit_s"), std::string::npos);
  EXPECT_NE(full.find("ml.svr.support_vectors"), std::string::npos);
}

TEST_F(MlMetricsTest, TreeHistogramsCountEveryTree) {
  metrics::set_enabled(true);
  const auto [x, y] = training_data(200);
  ForestParams fp;
  fp.n_estimators = 7;
  RandomForestRegressor forest(fp);
  forest.fit(x, y);

  const auto snap = metrics::Registry::global().snapshot();
  const std::string json =
      snap.to_json(/*deterministic_only=*/true).dump(2);
  // One ml.tree.nodes sample per fitted tree.
  EXPECT_NE(json.find("\"name\": \"ml.tree.nodes\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\": 7"), std::string::npos) << json;
}

} // namespace
} // namespace dsem::ml
