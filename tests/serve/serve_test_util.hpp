// Shared fixtures for the serve tests: cheap synthetic trained artifacts
// (no device sweep — a hand-built dataset and a small forest) and the
// compact really-trained artifacts the determinism/integration suites
// share.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/kernel_features.hpp"
#include "core/workload.hpp"
#include "ml/forest.hpp"
#include "serve/artifact.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "sim/device_spec.hpp"
#include "synergy/device.hpp"

namespace dsem::serve_test {

inline const std::vector<double> kFreqs = {600, 800, 1000, 1200, 1400};
inline constexpr double kDefaultFreq = 1400.0;

/// A smooth synthetic (time, energy) surface over 3 features + frequency,
/// with seeded jitter so different seeds give different models.
inline core::Dataset synthetic_dataset(std::uint64_t seed,
                                       std::size_t inputs = 8) {
  Rng rng(seed);
  core::Dataset dataset;
  const std::size_t rows = inputs * kFreqs.size();
  dataset.x = ml::Matrix(rows, 4);
  std::size_t r = 0;
  for (std::size_t i = 0; i < inputs; ++i) {
    const double a = rng.uniform(8.0, 160.0);
    const double b = rng.uniform(2.0, 24.0);
    const double c = rng.uniform(16.0, 10000.0);
    for (const double freq : kFreqs) {
      dataset.x(r, 0) = a;
      dataset.x(r, 1) = b;
      dataset.x(r, 2) = c;
      dataset.x(r, 3) = freq;
      const double work = 1.0 + a * b * 1e-2 + c * 1e-3;
      const double slowdown = kDefaultFreq / freq;
      dataset.time_s.push_back(work * std::pow(slowdown, 0.8) *
                               (1.0 + 0.02 * rng.uniform()));
      dataset.energy_j.push_back(work * std::pow(freq / kDefaultFreq, 1.6) *
                                 (50.0 + 5.0 * rng.uniform()));
      dataset.groups.push_back(static_cast<int>(i));
      ++r;
    }
  }
  return dataset;
}

/// A small trained Random Forest (8 trees, depth 6) to keep per-seed
/// property tests fast.
inline ml::ForestParams small_forest_params(std::uint64_t seed) {
  ml::ForestParams params;
  params.n_estimators = 8;
  params.max_depth = 6;
  params.seed = seed;
  return params;
}

/// Trains a domain-specific artifact on synthetic data — no device, no
/// sweep; milliseconds per call.
inline serve::ModelArtifact synthetic_artifact(
    std::uint64_t seed, const std::string& app = "cronos",
    const std::string& device = "v100") {
  auto model = std::make_shared<core::DomainSpecificModel>(
      ml::RandomForestRegressor(small_forest_params(seed)));
  model->train(synthetic_dataset(derive_seed(seed, 7)));

  serve::ModelArtifact artifact;
  artifact.key = {app, device};
  artifact.origin = "synthetic-test";
  artifact.feature_names = {"a", "b", "c"};
  artifact.freqs_mhz = kFreqs;
  artifact.default_freq_mhz = kDefaultFreq;
  artifact.ds = std::move(model);
  return artifact;
}

/// The fixed Cronos grids behind the synthetic hybrid fixtures: real
/// workloads (the hybrid extractor needs kernel launch lists) over a
/// synthetic measurement surface (no device sweep).
inline const std::vector<std::unique_ptr<core::Workload>>&
hybrid_test_workloads() {
  static const std::vector<std::unique_ptr<core::Workload>> workloads = [] {
    std::vector<std::unique_ptr<core::Workload>> out;
    for (const int n : {10, 20, 40, 80}) {
      const int side = std::max(4, n * 2 / 5);
      out.push_back(std::make_unique<core::CronosWorkload>(
          cronos::GridDims{n, side, side}, 10));
    }
    return out;
  }();
  return workloads;
}

/// Like synthetic_dataset, but grouped over hybrid_test_workloads() with
/// the group metadata (names, baselines, default clock) core::fuse_dataset
/// requires.
inline core::Dataset synthetic_hybrid_dataset(std::uint64_t seed) {
  Rng rng(seed);
  const auto& workloads = hybrid_test_workloads();
  core::Dataset dataset;
  dataset.x = ml::Matrix(workloads.size() * kFreqs.size(), 4);
  std::size_t r = 0;
  for (std::size_t g = 0; g < workloads.size(); ++g) {
    const std::vector<double> features = workloads[g]->domain_features();
    const double work = 1.0 + features[0] * features[1] * features[2] * 1e-3;
    for (const double freq : kFreqs) {
      auto row = dataset.x.row(r);
      std::copy(features.begin(), features.end(), row.begin());
      row[features.size()] = freq;
      const double slowdown = kDefaultFreq / freq;
      dataset.time_s.push_back(work * std::pow(slowdown, 0.8) *
                               (1.0 + 0.02 * rng.uniform()));
      dataset.energy_j.push_back(work * std::pow(freq / kDefaultFreq, 1.6) *
                                 (50.0 + 5.0 * rng.uniform()));
      dataset.groups.push_back(static_cast<int>(g));
      ++r;
    }
    dataset.group_names.push_back(workloads[g]->name());
    dataset.group_default.push_back({work, work * 52.0});
    dataset.default_freq_mhz.push_back(kDefaultFreq);
  }
  return dataset;
}

/// Trains a hybrid artifact on the synthetic surface — fused features come
/// from the real kernel launch lists on the (noise-free) V100 spec, so
/// this is milliseconds per call like synthetic_artifact.
inline serve::ModelArtifact synthetic_hybrid_artifact(std::uint64_t seed) {
  auto model = std::make_shared<core::DomainSpecificModel>(
      ml::RandomForestRegressor(small_forest_params(seed)));
  model->train(
      core::fuse_dataset(synthetic_hybrid_dataset(derive_seed(seed, 11)),
                         hybrid_test_workloads(), sim::v100()));

  serve::ModelArtifact artifact;
  artifact.key = {"cronos", "v100"};
  artifact.origin = "synthetic-test";
  artifact.feature_names = {"grid_x", "grid_y", "grid_z"};
  artifact.freqs_mhz = kFreqs;
  artifact.default_freq_mhz = kDefaultFreq;
  artifact.kind = serve::ModelKind::kHybrid;
  artifact.ds = std::move(model);
  return artifact;
}

/// A really-trained (device sweep + fit) compact artifact for the
/// grouped suites: small forest, strided frequencies, 2 repetitions —
/// fractions of a second instead of the example's full sweep.
inline serve::ModelArtifact train_compact_artifact(const std::string& app) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{}, 0xAD51);
  synergy::Device device(sim_dev);
  ml::ForestParams params;
  params.n_estimators = 16;
  params.max_depth = 8;
  const ml::RandomForestRegressor prototype(params);

  serve::TrainConfig config;
  config.compact = true;
  config.freq_stride = 8;
  config.sweep.repetitions = 2;
  config.prototype = &prototype;
  config.origin = "test-train";
  return serve::train_domain_specific(device, {app, "v100"}, config);
}

} // namespace dsem::serve_test
