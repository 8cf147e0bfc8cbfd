#include "core/gp_model.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/features.hpp"
#include "core/sweep.hpp"

namespace dsem::core {

namespace {

ml::ForestParams default_forest_params() {
  ml::ForestParams params;
  params.n_estimators = 100;
  params.max_depth = 0;
  params.seed = 0x69e0;
  return params;
}

} // namespace

GeneralPurposeModel::GeneralPurposeModel(const ml::Regressor& prototype)
    : speedup_model_(prototype.clone()), energy_model_(prototype.clone()) {}

GeneralPurposeModel::GeneralPurposeModel()
    : GeneralPurposeModel(ml::RandomForestRegressor(default_forest_params())) {}

void GeneralPurposeModel::train(
    synergy::Device& device,
    std::span<const microbench::MicroBenchmark> suite, int repetitions,
    std::size_t freq_stride) {
  SweepOptions options;
  options.repetitions = repetitions;
  train(device, suite, options, freq_stride);
}

void GeneralPurposeModel::train(
    synergy::Device& device,
    std::span<const microbench::MicroBenchmark> suite,
    const SweepOptions& options, std::size_t freq_stride) {
  DSEM_ENSURE(!suite.empty(), "training on an empty micro-benchmark suite");
  DSEM_ENSURE(options.repetitions >= 1, "repetitions must be >= 1");
  trace::Span span("train.gp", trace::cat::kTrain);
  span.value(static_cast<double>(suite.size()));
  metrics::ScopedTimer timer("train.gp_s");

  const std::vector<double> freqs =
      every_nth(device.supported_frequencies(), freq_stride);

  // One sweep task per micro-benchmark; the engine measures the baseline
  // and every strided frequency in parallel on deterministic replicas.
  std::vector<SweepTask> tasks;
  tasks.reserve(suite.size());
  for (const microbench::MicroBenchmark& mb : suite) {
    tasks.push_back({[&mb](synergy::Queue& queue) {
      queue.submit({mb.profile, mb.work_items, {}});
    }});
  }
  const std::vector<FrequencySweep> sweeps =
      sweep_grid(device, tasks, freqs, options);

  // Failed grid points are dropped from the training set; a kernel with a
  // failed baseline has nothing to normalize against and drops entirely.
  std::size_t usable_rows = 0;
  for (const FrequencySweep& sweep : sweeps) {
    if (!sweep.baseline_ok) {
      continue;
    }
    for (const SweepPoint& sp : sweep.points) {
      usable_rows += sp.ok ? 1 : 0;
    }
  }
  DSEM_ENSURE(usable_rows > 0,
              "no micro-benchmark measurements survived the sweep");

  ml::Matrix x(usable_rows, sim::kNumStaticFeatures + 1);
  std::vector<double> y_speedup;
  std::vector<double> y_energy;
  y_speedup.reserve(usable_rows);
  y_energy.reserve(usable_rows);

  std::size_t row = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const FrequencySweep& sweep = sweeps[i];
    if (!sweep.baseline_ok) {
      continue;
    }
    const Measurement& base = sweep.baseline;
    DSEM_ENSURE(base.time_s > 0.0 && base.energy_j > 0.0,
                "degenerate baseline");
    const std::vector<double> features =
        static_feature_vector(suite[i].profile);

    for (const SweepPoint& sp : sweep.points) {
      if (!sp.ok) {
        continue;
      }
      auto dst = x.row(row);
      std::copy(features.begin(), features.end(), dst.begin());
      dst[sim::kNumStaticFeatures] = sp.freq_mhz;
      y_speedup.push_back(base.time_s / sp.m.time_s);
      y_energy.push_back(sp.m.energy_j / base.energy_j);
      ++row;
    }
  }
  device.reset_frequency();

  speedup_model_->fit(x, y_speedup);
  energy_model_->fit(x, y_energy);
  training_rows_ = row;
  trained_ = true;
}

Prediction GeneralPurposeModel::predict(const sim::KernelProfile& profile,
                                        std::span<const double> freqs_mhz,
                                        double default_freq_mhz) const {
  DSEM_ENSURE(trained_, "predict on an untrained GeneralPurposeModel");
  DSEM_ENSURE(!freqs_mhz.empty(), "predict over an empty frequency list");

  Prediction out;
  out.freqs_mhz.assign(freqs_mhz.begin(), freqs_mhz.end());
  const std::vector<double> features = static_feature_vector(profile);

  // One sweep of the kernel's row along its frequency column, baseline
  // clock first: each value is an independent predict_one, so sweeping
  // changes nothing but speed.
  std::vector<double> clocks{default_freq_mhz};
  clocks.insert(clocks.end(), freqs_mhz.begin(), freqs_mhz.end());
  const std::vector<double> s_pred =
      speedup_model_->predict_sweep(features, clocks);
  const std::vector<double> e_pred =
      energy_model_->predict_sweep(features, clocks);

  // Normalize against the model's own output at the default frequency so
  // the predicted curve satisfies speedup(default) = norm_energy(default)
  // = 1 exactly, like the measured curves do.
  const double s_base = s_pred.front();
  const double e_base = e_pred.front();
  DSEM_ENSURE(s_base > 0.0 && e_base > 0.0,
              "non-positive predicted baseline");

  out.speedup.reserve(freqs_mhz.size());
  out.norm_energy.reserve(freqs_mhz.size());
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.speedup.push_back(s_pred[i + 1] / s_base);
    out.norm_energy.push_back(e_pred[i + 1] / e_base);
  }
  return out;
}

} // namespace dsem::core
