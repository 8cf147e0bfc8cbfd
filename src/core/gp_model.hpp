// General-purpose energy model — the state-of-the-art baseline (§4.1,
// Fan et al. ICPP'19).
//
// Trained once per device on the 106-kernel micro-benchmark suite: each
// kernel is executed at every (strided) frequency, its speedup and
// normalized energy relative to the default clock are recorded, and two
// regressors learn [normalized static features..., frequency] -> ratio.
// Prediction for an application uses only its aggregate static code
// features: the model is input-size-blind by construction.
#pragma once

#include <memory>

#include "core/ds_model.hpp" // for Prediction
#include "core/sweep.hpp"
#include "microbench/suite.hpp"
#include "ml/forest.hpp"
#include "synergy/device.hpp"

namespace dsem::core {

class GeneralPurposeModel {
public:
  /// Uses clones of `prototype` for the speedup and energy regressors.
  explicit GeneralPurposeModel(const ml::Regressor& prototype);

  /// Random Forest with library defaults.
  GeneralPurposeModel();

  /// Trains on the micro-benchmark corpus measured on `device`. Every
  /// `freq_stride`-th supported frequency is sampled (1 = all 196).
  void train(synergy::Device& device,
             std::span<const microbench::MicroBenchmark> suite,
             int repetitions = 3, std::size_t freq_stride = 4);

  /// Same, with full sweep-engine control (retry policy, report sink,
  /// shared cache). Grid points that exhaust their retries are
  /// dropped from the training set; a kernel whose baseline fails drops
  /// entirely. Throws only if nothing survives.
  void train(synergy::Device& device,
             std::span<const microbench::MicroBenchmark> suite,
             const SweepOptions& options, std::size_t freq_stride = 4);

  bool trained() const noexcept { return trained_; }
  std::size_t training_rows() const noexcept { return training_rows_; }

  /// Predicted speedup / normalized-energy curve for an application whose
  /// aggregate kernel profile is `profile`. time_s/energy_j stay empty —
  /// this model family predicts ratios, not absolute values.
  Prediction predict(const sim::KernelProfile& profile,
                     std::span<const double> freqs_mhz,
                     double default_freq_mhz) const;

private:
  std::unique_ptr<ml::Regressor> speedup_model_;
  std::unique_ptr<ml::Regressor> energy_model_;
  bool trained_ = false;
  std::size_t training_rows_ = 0;
};

} // namespace dsem::core
