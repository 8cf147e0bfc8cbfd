// Domain-specific energy/time model — the paper's contribution (§4.2).
//
// Two regressors (Random Forest by default, per the paper's model
// selection) map [domain features..., frequency] to raw execution time
// and energy. At prediction time the model is evaluated over all
// frequency configurations and the *predicted* value at the default
// frequency serves as the baseline for speedup and normalized energy
// (§4.2.3), from which the predicted Pareto-optimal frequency set follows.
//
// The hybrid static+dynamic family (DSO-style; DESIGN.md §7.13) is this
// same model over wider rows: built on hybrid_forest_params(), trained on
// core::fuse_dataset() rows, and queried with core::fused_feature_vector().
#pragma once

#include <memory>

#include "common/json.hpp"
#include "core/dataset.hpp"
#include "ml/forest.hpp"

namespace dsem::core {

/// A model's view of one workload across the frequency schedule.
struct Prediction {
  std::vector<double> freqs_mhz;
  std::vector<double> time_s;      ///< empty for models predicting ratios only
  std::vector<double> energy_j;    ///< empty for models predicting ratios only
  std::vector<double> speedup;
  std::vector<double> norm_energy;
  /// The predicted time and energy at the default clock that a model
  /// predicting time and energy baselines on: speedup[i] is exactly
  /// base_time_s / time_s[i] and norm_energy[i] exactly
  /// energy_j[i] / base_energy_j. 0 for models predicting ratios only.
  double base_time_s = 0.0;
  double base_energy_j = 0.0;

  /// Indices of the predicted Pareto-optimal frequency configurations.
  std::vector<std::size_t> pareto_indices() const;
};

/// Forest parameters of the hybrid family: the paper-default forest with
/// its own seed, so the two families never share bootstrap streams.
ml::ForestParams hybrid_forest_params();

class DomainSpecificModel {
public:
  /// Uses clones of `prototype` for the time and energy regressors.
  /// With `log_targets` (default), the regressors fit log(time)/log(energy):
  /// tree-ensemble blending then averages *shapes* geometrically, so input
  /// magnitude differences cancel exactly in the predicted speedup and
  /// normalized-energy ratios (see bench/ablation_log_targets).
  explicit DomainSpecificModel(const ml::Regressor& prototype,
                               bool log_targets = true);

  /// Paper default: Random Forest with library-default hyperparameters.
  DomainSpecificModel();

  /// Trains on dataset rows selected by `rows` (all rows when empty).
  void train(const Dataset& dataset, std::span<const std::size_t> rows = {});

  bool trained() const noexcept { return trained_; }

  /// Predicts the full curve for one input across `freqs`, with speedup /
  /// normalized energy baselined on the prediction at `default_freq_mhz`.
  /// `domain_features` is the row prefix (the row without its frequency
  /// column); throws when its width contradicts a known input_width().
  Prediction predict(std::span<const double> domain_features,
                     std::span<const double> freqs_mhz,
                     double default_freq_mhz) const;

  const ml::Regressor& time_model() const { return *time_model_; }
  const ml::Regressor& energy_model() const { return *energy_model_; }
  bool log_targets() const noexcept { return log_targets_; }
  /// Regressor input width (row prefix + frequency column); 0 when
  /// unknown, i.e. loaded from a payload that does not record it.
  std::size_t input_width() const noexcept { return input_width_; }

  /// Writes the trained model (both regressors, via ml/serialize) as the
  /// "model" payload of a "dsem-model-v1" artifact (serve/artifact.hpp):
  /// {log_targets, time, energy}, plus input_width after log_targets when
  /// `with_width` (the hybrid payload). Throws for untrained models,
  /// before writing anything.
  void write(json::Writer& out, bool with_width = false) const;
  /// Reads what write() wrote, its fields in any order. With
  /// `with_width` it requires and validates input_width; without it the
  /// field is skipped. Round-trips bit-identically: the model read back
  /// predicts the same values bit for bit.
  static DomainSpecificModel read(json::Reader& in, bool with_width = false);

private:
  std::unique_ptr<ml::Regressor> time_model_;
  std::unique_ptr<ml::Regressor> energy_model_;
  bool log_targets_ = true;
  bool trained_ = false;
  std::size_t input_width_ = 0;
};

} // namespace dsem::core
