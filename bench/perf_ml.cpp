// Performance micro-benchmarks of the ML layer: forest fit dominates the
// LOOCV evaluation harness. The perf_ml/ suite is the strict zone of the
// CI perf gate (perf_compare --strict-prefix perf_ml/), so keep existing
// benchmark names stable — renames read as missing+added, not regressions.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/ds_model.hpp"
#include "core/kernel_features.hpp"
#include "core/workload.hpp"
#include "ml/forest.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"
#include "sim/device_spec.hpp"

namespace {

using namespace dsem;

std::pair<ml::Matrix, std::vector<double>> make_data(std::size_t n,
                                                     std::size_t k) {
  Rng rng(7);
  ml::Matrix x(n, k);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      x(i, j) = rng.uniform(0.0, 10.0);
      acc += (j + 1.0) * x(i, j);
    }
    y[i] = acc + std::sin(acc) + rng.normal(0.0, 0.1);
  }
  return {std::move(x), std::move(y)};
}

void BM_ForestFit(benchmark::State& state) {
  const auto [x, y] = make_data(static_cast<std::size_t>(state.range(0)), 4);
  ml::ForestParams params;
  params.n_estimators = 100;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(params);
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFit)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// LiGen-shaped training set: 48 inputs, each a point of a 4 × 4 × 3
// Cartesian product of three domain features that are constant across its
// rows, swept over 49 clocks and measured twice (4704 rows). Deep in
// every tree all rows share one input, so three of the four columns are
// constant there: the shape of a Fig. 13 DS fold.
std::pair<ml::Matrix, std::vector<double>> make_grouped_data() {
  Rng rng(7);
  std::vector<std::array<double, 4>> rows;
  std::vector<double> y;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      for (int c = 0; c < 3; ++c) {
        const double work = (1.0 + a) * (2.0 + b) * (1.0 + 0.5 * c);
        for (int step = 0; step < 49; ++step) {
          const double clock = 600.0 + 800.0 * step / 48.0;
          for (int rep = 0; rep < 2; ++rep) {
            rows.push_back({8.0 * (a + 1), 100.0 * (b + 1), 16.0 * (c + 1),
                            clock});
            y.push_back(work * std::pow(1400.0 / clock, 0.8) *
                        (1.0 + 0.02 * rng.uniform()));
          }
        }
      }
    }
  }
  ml::Matrix x(rows.size(), 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), x.row(i).begin());
  }
  return {std::move(x), std::move(y)};
}

void BM_ForestFitGrouped(benchmark::State& state) {
  const auto [x, y] = make_grouped_data();
  ml::ForestParams params;
  params.n_estimators = 100;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(params);
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFitGrouped)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto [x, y] = make_data(5000, 4);
  ml::RandomForestRegressor forest;
  forest.fit(x, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_one(x.row(i++ % x.rows())));
  }
}
BENCHMARK(BM_ForestPredict);

// Single tree on the full dataset: isolates split finding from the
// bootstrap/ensemble machinery that dominates BM_ForestFit.
void BM_TreeFit(benchmark::State& state) {
  const auto [x, y] = make_data(static_cast<std::size_t>(state.range(0)), 4);
  ml::TreeParams params;
  for (auto _ : state) {
    ml::DecisionTreeRegressor tree(params);
    tree.fit(x, y);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFit)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_ForestPredictBatch(benchmark::State& state) {
  const auto [x, y] = make_data(5000, 4);
  ml::RandomForestRegressor forest;
  forest.fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_many(x));
  }
}
BENCHMARK(BM_ForestPredictBatch)->Unit(benchmark::kMillisecond);

// Hybrid-family fixture sized like the serving path's real training job:
// the six-grid Cronos training set swept over a 25-step frequency
// schedule, with a smooth synthetic (time, energy) surface standing in
// for the device sweep (the sweep itself is perf_advisor's subject).
struct HybridBenchData {
  std::vector<std::unique_ptr<core::Workload>> workloads;
  core::Dataset dataset;
  sim::DeviceSpec spec = sim::v100();
  std::vector<double> freqs;
  double default_freq = 1400.0;
};

const HybridBenchData& hybrid_bench_data() {
  static const HybridBenchData* data = [] {
    auto* d = new HybridBenchData;
    for (double f = 600.0; f <= 1400.0; f += 800.0 / 24.0) {
      d->freqs.push_back(f);
    }
    Rng rng(11);
    std::size_t r = 0;
    for (const int n : {10, 20, 40, 80, 120, 160}) {
      const int side = std::max(4, n * 2 / 5);
      d->workloads.push_back(std::make_unique<core::CronosWorkload>(
          cronos::GridDims{n, side, side}, 10));
    }
    d->dataset.x = ml::Matrix(d->workloads.size() * d->freqs.size(), 4);
    for (std::size_t g = 0; g < d->workloads.size(); ++g) {
      const std::vector<double> features = d->workloads[g]->domain_features();
      const double work =
          1.0 + features[0] * features[1] * features[2] * 1e-3;
      for (const double freq : d->freqs) {
        auto row = d->dataset.x.row(r);
        std::copy(features.begin(), features.end(), row.begin());
        row[features.size()] = freq;
        const double slowdown = d->default_freq / freq;
        d->dataset.time_s.push_back(work * std::pow(slowdown, 0.8) *
                                    (1.0 + 0.02 * rng.uniform()));
        d->dataset.energy_j.push_back(
            work * std::pow(freq / d->default_freq, 1.6) *
            (50.0 + 5.0 * rng.uniform()));
        d->dataset.groups.push_back(static_cast<int>(g));
        ++r;
      }
      d->dataset.group_names.push_back(d->workloads[g]->name());
      d->dataset.group_default.push_back({work, work * 52.0});
      d->dataset.default_freq_mhz.push_back(d->default_freq);
    }
    return d;
  }();
  return *data;
}

// Full hybrid training: fused feature extraction for every group plus two
// paper-default forests (time and energy) over the 13 + domain + clock
// input columns.
void BM_HybridFit(benchmark::State& state) {
  const HybridBenchData& d = hybrid_bench_data();
  const ml::RandomForestRegressor prototype(core::hybrid_forest_params());
  for (auto _ : state) {
    core::DomainSpecificModel model(prototype);
    model.train(core::fuse_dataset(d.dataset, d.workloads, d.spec));
    benchmark::DoNotOptimize(model.input_width());
  }
}
BENCHMARK(BM_HybridFit)->Unit(benchmark::kMillisecond);

// Serving-shaped prediction: one full frequency curve per workload, with
// the fused feature block re-extracted per call as the advisor does.
void BM_HybridPredictBatch(benchmark::State& state) {
  const HybridBenchData& d = hybrid_bench_data();
  core::DomainSpecificModel model{
      ml::RandomForestRegressor(core::hybrid_forest_params())};
  model.train(core::fuse_dataset(d.dataset, d.workloads, d.spec));
  for (auto _ : state) {
    for (const auto& workload : d.workloads) {
      benchmark::DoNotOptimize(model.predict(
          core::fused_feature_vector(*workload, d.spec, d.default_freq),
          d.freqs, d.default_freq));
    }
  }
}
BENCHMARK(BM_HybridPredictBatch)->Unit(benchmark::kMillisecond);

void BM_SvrFit(benchmark::State& state) {
  const auto [x, y] = make_data(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    ml::SvrRbf svr(100.0, 0.01, 1.0, 100);
    svr.fit(x, y);
    benchmark::DoNotOptimize(svr.support_vector_count());
  }
}
BENCHMARK(BM_SvrFit)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_SvrPredict(benchmark::State& state) {
  const auto [x, y] = make_data(800, 4);
  ml::SvrRbf svr(100.0, 0.01, 1.0, 100);
  svr.fit(x, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svr.predict_one(x.row(i++ % x.rows())));
  }
}
BENCHMARK(BM_SvrPredict);

} // namespace

BENCHMARK_MAIN();
