#include "serve/train.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/ds_model.hpp"
#include "core/kernel_features.hpp"

namespace dsem::serve {

std::vector<std::unique_ptr<core::Workload>>
training_set(const std::string& app, bool compact) {
  std::vector<std::unique_ptr<core::Workload>> out;
  if (app == "cronos") {
    const std::vector<int> sizes = compact
                                       ? std::vector<int>{10, 40, 160}
                                       : std::vector<int>{10, 20, 40, 80,
                                                          120, 160};
    for (const int n : sizes) {
      const int side = std::max(4, n * 2 / 5);
      out.push_back(std::make_unique<core::CronosWorkload>(
          cronos::GridDims{n, side, side}, 10));
    }
    return out;
  }
  DSEM_ENSURE(app == "ligen", "no training set for app: " + app);
  const std::vector<int> ligands = compact
                                       ? std::vector<int>{16, 1024, 10000}
                                       : std::vector<int>{16, 256, 1024,
                                                          4096, 10000};
  const std::vector<int> atoms =
      compact ? std::vector<int>{31, 89} : std::vector<int>{31, 63, 89};
  const std::vector<int> frags =
      compact ? std::vector<int>{4, 20} : std::vector<int>{4, 8, 20};
  for (const int l : ligands) {
    for (const int a : atoms) {
      for (const int f : frags) {
        out.push_back(std::make_unique<core::LigenWorkload>(l, a, f));
      }
    }
  }
  return out;
}

namespace {

/// The shared "profile the training grid" half of both train entry
/// points: strided training frequencies, one sweep, and the artifact
/// shell (key, provenance, full frequency grid, default clock).
struct TrainingSweep {
  std::vector<std::unique_ptr<core::Workload>> workloads;
  core::Dataset dataset;
  ModelArtifact artifact;
};

TrainingSweep run_training_sweep(synergy::Device& device, const ModelKey& key,
                                 const TrainConfig& config) {
  const std::vector<double> all_freqs = device.supported_frequencies();
  const std::vector<double> train_freqs =
      core::every_nth(all_freqs, config.freq_stride);
  TrainingSweep out;
  out.workloads = training_set(key.application, config.compact);
  out.dataset =
      core::build_dataset(device, out.workloads, config.sweep, train_freqs);

  out.artifact.key = key;
  out.artifact.origin = config.origin;
  out.artifact.feature_names = out.workloads.front()->feature_names();
  out.artifact.freqs_mhz = all_freqs;
  out.artifact.default_freq_mhz = device.default_frequency();
  return out;
}

} // namespace

ModelArtifact train_domain_specific(synergy::Device& device,
                                    const ModelKey& key,
                                    const TrainConfig& config) {
  TrainingSweep sweep = run_training_sweep(device, key, config);

  auto model = config.prototype != nullptr
                   ? std::make_shared<core::DomainSpecificModel>(
                         *config.prototype)
                   : std::make_shared<core::DomainSpecificModel>();
  model->train(sweep.dataset);
  sweep.artifact.ds = std::move(model);
  return std::move(sweep.artifact);
}

ModelArtifact train_hybrid(synergy::Device& device, const ModelKey& key,
                           const TrainConfig& config) {
  TrainingSweep sweep = run_training_sweep(device, key, config);

  const ml::RandomForestRegressor hybrid_default(core::hybrid_forest_params());
  auto model = std::make_shared<core::DomainSpecificModel>(
      config.prototype != nullptr ? *config.prototype : hybrid_default);
  model->train(
      core::fuse_dataset(sweep.dataset, sweep.workloads, device.spec()));
  sweep.artifact.kind = ModelKind::kHybrid;
  sweep.artifact.ds = std::move(model);
  return std::move(sweep.artifact);
}

} // namespace dsem::serve
