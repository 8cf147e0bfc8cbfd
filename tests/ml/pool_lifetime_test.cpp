// A fitted model holds no pool. Models fitted while a ScopedGlobalPool is
// live must predict after it is gone (on whichever pool is global then),
// with the same bits, since nothing they keep can point at the old pool.
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "ml/forest.hpp"

namespace dsem::ml {
namespace {

constexpr std::size_t kRows = 400;

Matrix random_rows(std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(kRows, 3);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.uniform(0.0, 5.0);
    }
  }
  return x;
}

TEST(PoolLifetime, ModelsFittedOnAScopedPoolPredictAfterItIsGone) {
  static_assert(kRows >= kParallelPredictMinRows);
  core::Dataset dataset;
  dataset.x = random_rows(3);
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto row = dataset.x.row(i);
    dataset.time_s.push_back(1.0 + row[0] * row[1] + row[2]);
    dataset.energy_j.push_back(2.0 + row[0] + row[1] * row[2]);
  }
  const Matrix queries = random_rows(4);

  ForestParams params;
  params.n_estimators = 16;
  RandomForestRegressor forest(params);
  core::DomainSpecificModel ds(RandomForestRegressor{params});
  std::vector<double> forest_in_scope;
  std::vector<double> time_in_scope;
  std::vector<double> energy_in_scope;
  {
    ScopedGlobalPool pool(2);
    forest.fit(dataset.x, dataset.time_s);
    ds.train(dataset);
    forest_in_scope = forest.predict_many(queries);
    time_in_scope = ds.time_model().predict_many(queries);
    energy_in_scope = ds.energy_model().predict_many(queries);
  }
  EXPECT_EQ(forest.predict_many(queries), forest_in_scope);
  EXPECT_EQ(ds.time_model().predict_many(queries), time_in_scope);
  EXPECT_EQ(ds.energy_model().predict_many(queries), energy_in_scope);
}

} // namespace
} // namespace dsem::ml
