// Training entry point for serving artifacts: profile an application's
// training sweep on a device, fit the domain-specific model, and wrap it
// as a registrable / serializable ModelArtifact.
//
// This is the "train once" half of the train-once / load-anywhere
// contract: the frequency_advisor example (--train-out), the serving
// benchmark, and the tests all train through this one path, so a model
// loaded from disk answers queries bit-identically to one trained in
// process.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/sweep.hpp"
#include "serve/artifact.hpp"
#include "synergy/device.hpp"

namespace dsem::serve {

struct TrainConfig {
  /// Train on every `freq_stride`-th supported frequency (the example's
  /// cheap-sweep default). The artifact still predicts over the full
  /// supported grid.
  std::size_t freq_stride = 4;
  /// Smaller training grids (fewer workloads) for tests and smoke runs.
  bool compact = false;
  /// Sweep knobs: repetitions, retry, report.
  core::SweepOptions sweep;
  /// Regressor prototype to clone; nullptr = paper-default Random Forest.
  const ml::Regressor* prototype = nullptr;
  /// Recorded in the artifact as provenance.
  std::string origin = "trained-in-process";
};

/// The training workload grids of the frequency_advisor example
/// ("cronos" / "ligen"); `compact` shrinks them for tests.
std::vector<std::unique_ptr<core::Workload>>
training_set(const std::string& app, bool compact = false);

/// Profiles training_set(key.application) on `device` at strided
/// frequencies, fits a DomainSpecificModel, and returns the artifact
/// (full frequency grid, device default clock, feature names).
ModelArtifact train_domain_specific(synergy::Device& device,
                                    const ModelKey& key,
                                    const TrainConfig& config = {});

/// Same sweep, but a hybrid artifact: the model trains on
/// core::fuse_dataset rows (fused static+dynamic features per input on
/// `device`'s spec at the default clock) with hybrid_forest_params()
/// unless a prototype is given. The artifact's feature_names stay the
/// *domain* names — hybrid queries carry domain features only and
/// ModelArtifact::predict recomputes the fused block — so a hybrid
/// artifact is a drop-in for a DS one.
ModelArtifact train_hybrid(synergy::Device& device, const ModelKey& key,
                           const TrainConfig& config = {});

} // namespace dsem::serve
