#include "core/ds_model.hpp"

#include <cmath>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/features.hpp"
#include "core/pareto.hpp"
#include "ml/serialize.hpp"

namespace dsem::core {

std::vector<std::size_t> Prediction::pareto_indices() const {
  return pareto_front(speedup, norm_energy);
}

namespace {

ml::ForestParams forest_params(std::uint64_t seed) {
  ml::ForestParams params;
  params.n_estimators = 100; // sklearn defaults, which the paper's grid
  params.max_depth = 0;      // search found best
  params.seed = seed;
  return params;
}

} // namespace

ml::ForestParams hybrid_forest_params() { return forest_params(0x4b1d); }

DomainSpecificModel::DomainSpecificModel(const ml::Regressor& prototype,
                                         bool log_targets)
    : time_model_(prototype.clone()), energy_model_(prototype.clone()),
      log_targets_(log_targets) {}

DomainSpecificModel::DomainSpecificModel()
    : DomainSpecificModel(ml::RandomForestRegressor(forest_params(0x05d5))) {}

void DomainSpecificModel::train(const Dataset& dataset,
                                std::span<const std::size_t> rows) {
  DSEM_ENSURE(dataset.rows() > 0, "training on an empty dataset");
  trace::Span span("train.ds", trace::cat::kTrain);
  span.value(static_cast<double>(rows.empty() ? dataset.rows() : rows.size()));
  metrics::ScopedTimer timer("train.ds_s");
  std::vector<std::size_t> all;
  if (rows.empty()) {
    all.resize(dataset.rows());
    std::iota(all.begin(), all.end(), 0);
    rows = all;
  }
  const ml::Matrix x = dataset.x.gather_rows(rows);
  std::vector<double> t(rows.size());
  std::vector<double> e(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t[i] = dataset.time_s[rows[i]];
    e[i] = dataset.energy_j[rows[i]];
    DSEM_ENSURE(t[i] > 0.0 && e[i] > 0.0,
                "non-positive measurement in training data");
    if (log_targets_) {
      t[i] = std::log(t[i]);
      e[i] = std::log(e[i]);
    }
  }
  time_model_->fit(x, t);
  energy_model_->fit(x, e);
  input_width_ = x.cols();
  trained_ = true;
}

void DomainSpecificModel::write(json::Writer& out, bool with_width) const {
  DSEM_ENSURE(trained_, "serialize of an untrained DomainSpecificModel");
  DSEM_ENSURE(!with_width || input_width_ > 0,
              "serialize: model input width unknown");
  out.begin_object().key("log_targets").value(log_targets_);
  if (with_width) {
    out.key("input_width").value(input_width_);
  }
  ml::write_regressor(out.key("time"), *time_model_);
  ml::write_regressor(out.key("energy"), *energy_model_);
  out.end_object();
}

DomainSpecificModel DomainSpecificModel::read(json::Reader& in,
                                              bool with_width) {
  DomainSpecificModel model;
  std::unique_ptr<ml::Regressor> time;
  std::unique_ptr<ml::Regressor> energy;
  std::optional<bool> log_targets;
  in.read_object([&](std::string_view key) {
    if (key == "log_targets") {
      log_targets = in.read_bool();
    } else if (key == "input_width" && with_width) {
      const auto width = json::as_integer<std::size_t>(
          in.read_number(), "model payload: input_width");
      DSEM_ENSURE(width >= 2 && width <= 1'000'000'000,
                  "model payload: bad input_width");
      model.input_width_ = width;
    } else if (key == "time") {
      time = ml::read_regressor(in);
    } else if (key == "energy") {
      energy = ml::read_regressor(in);
    } else {
      in.skip();
    }
  });
  if (!time) {
    json::missing_key("time");
  }
  if (!energy) {
    json::missing_key("energy");
  }
  if (!log_targets) {
    json::missing_key("log_targets");
  }
  if (with_width && model.input_width_ == 0) {
    json::missing_key("input_width");
  }
  model.time_model_ = std::move(time);
  model.energy_model_ = std::move(energy);
  model.log_targets_ = *log_targets;
  model.trained_ = true;
  return model;
}

Prediction DomainSpecificModel::predict(std::span<const double> domain_features,
                                        std::span<const double> freqs_mhz,
                                        double default_freq_mhz) const {
  DSEM_ENSURE(trained_, "predict on an untrained DomainSpecificModel");
  DSEM_ENSURE(!freqs_mhz.empty(), "predict over an empty frequency list");
  DSEM_ENSURE(input_width_ == 0 || domain_features.size() + 1 == input_width_,
              "predict: feature width does not match the model");

  Prediction out;
  out.freqs_mhz.assign(freqs_mhz.begin(), freqs_mhz.end());
  out.time_s.reserve(freqs_mhz.size());
  out.energy_j.reserve(freqs_mhz.size());

  // One sweep of the input's row along its frequency column, baseline
  // clock last: each value is an independent predict_one, so sweeping
  // changes nothing but speed.
  std::vector<double> clocks(freqs_mhz.begin(), freqs_mhz.end());
  clocks.push_back(default_freq_mhz);
  std::vector<double> t_pred =
      time_model_->predict_sweep(domain_features, clocks);
  std::vector<double> e_pred =
      energy_model_->predict_sweep(domain_features, clocks);
  if (log_targets_) {
    for (double& t : t_pred) {
      t = std::exp(t);
    }
    for (double& e : e_pred) {
      e = std::exp(e);
    }
  }
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.time_s.push_back(t_pred[i]);
    out.energy_j.push_back(e_pred[i]);
  }

  out.base_time_s = t_pred.back();
  out.base_energy_j = e_pred.back();
  DSEM_ENSURE(out.base_time_s > 0.0 && out.base_energy_j > 0.0,
              "non-positive predicted baseline");

  out.speedup.reserve(freqs_mhz.size());
  out.norm_energy.reserve(freqs_mhz.size());
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.speedup.push_back(out.base_time_s / out.time_s[i]);
    out.norm_energy.push_back(out.energy_j[i] / out.base_energy_j);
  }
  return out;
}

} // namespace dsem::core
