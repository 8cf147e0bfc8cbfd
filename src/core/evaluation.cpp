#include "core/evaluation.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/statistics.hpp"
#include "common/trace.hpp"

namespace dsem::core {

double AccuracyReport::worst_speedup_gain() const {
  DSEM_ENSURE(!rows.empty(),
              "worst_speedup_gain over an empty accuracy report");
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& r : rows) {
    worst = std::min(worst, r.gp_speedup_mape / std::max(r.ds_speedup_mape, 1e-12));
  }
  return worst;
}

double AccuracyReport::worst_energy_gain() const {
  DSEM_ENSURE(!rows.empty(),
              "worst_energy_gain over an empty accuracy report");
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& r : rows) {
    worst = std::min(worst, r.gp_energy_mape / std::max(r.ds_energy_mape, 1e-12));
  }
  return worst;
}

TruthCurves truth_curves(const Dataset& dataset, int group) {
  const auto rows = dataset.rows_of_group(group);
  DSEM_ENSURE(!rows.empty(), "group has no rows");
  const Measurement base =
      dataset.group_default[static_cast<std::size_t>(group)];
  DSEM_ENSURE(base.time_s > 0.0 && base.energy_j > 0.0,
              "degenerate group baseline");

  TruthCurves out;
  const std::size_t freq_col = dataset.x.cols() - 1;
  for (std::size_t r : rows) {
    out.freqs_mhz.push_back(dataset.x(r, freq_col));
    out.time_s.push_back(dataset.time_s[r]);
    out.energy_j.push_back(dataset.energy_j[r]);
    out.speedup.push_back(base.time_s / dataset.time_s[r]);
    out.norm_energy.push_back(dataset.energy_j[r] / base.energy_j);
  }
  return out;
}

namespace {

/// `model`'s curve for one group of `dataset` over `freqs_mhz`, queried
/// with the group's own row prefix and default clock: the predict step of
/// every fold.
Prediction predict_group(const DomainSpecificModel& model,
                         const Dataset& dataset, int group,
                         std::span<const double> freqs_mhz) {
  const auto prefix = dataset.x.row(dataset.rows_of_group(group).front());
  const double default_freq =
      dataset.default_freq_mhz[static_cast<std::size_t>(group)];
  return model.predict(prefix.first(prefix.size() - 1), freqs_mhz,
                       default_freq);
}

/// A fresh frequency model cloned from `prototype` (null = Random Forest
/// default).
DomainSpecificModel fresh_model(const ml::Regressor* prototype) {
  return prototype ? DomainSpecificModel(*prototype) : DomainSpecificModel();
}

/// The GP baseline's curve for one group over its truth frequencies.
Prediction predict_gp(const Dataset& dataset,
                      std::span<const std::unique_ptr<Workload>> workloads,
                      const GeneralPurposeModel& gp, int group,
                      std::span<const double> freqs_mhz) {
  const auto ug = static_cast<std::size_t>(group);
  return gp.predict(workloads[ug]->aggregate_profile(), freqs_mhz,
                    dataset.default_freq_mhz[ug]);
}

/// Scores one held-out group's predicted curve and the GP baseline's
/// against its measured curves: the shared kernel of the LOOCV and the
/// extrapolation split.
AccuracyRow score_fold(const Dataset& dataset,
                       std::span<const std::unique_ptr<Workload>> workloads,
                       const GeneralPurposeModel& gp, int group,
                       const HeldOut& fold) {
  const Prediction base =
      predict_gp(dataset, workloads, gp, group, fold.truth.freqs_mhz);
  AccuracyRow row;
  row.input = dataset.group_names[static_cast<std::size_t>(group)];
  row.ds_speedup_mape = stats::mape(fold.truth.speedup, fold.predicted.speedup);
  row.ds_energy_mape =
      stats::mape(fold.truth.norm_energy, fold.predicted.norm_energy);
  row.gp_speedup_mape = stats::mape(fold.truth.speedup, base.speedup);
  row.gp_energy_mape = stats::mape(fold.truth.norm_energy, base.norm_energy);
  return row;
}

} // namespace

HeldOut hold_out(const Dataset& train, const Dataset& truth, int group,
                 DomainSpecificModel model) {
  DSEM_ENSURE(train.group_names == truth.group_names,
              "hold_out: train and truth datasets list different groups");
  std::vector<std::size_t> rows;
  rows.reserve(train.rows());
  for (std::size_t i = 0; i < train.groups.size(); ++i) {
    if (train.groups[i] != group) {
      rows.push_back(i);
    }
  }
  DSEM_ENSURE(!rows.empty(), "LOOCV fold has no training rows");
  model.train(train, rows);
  HeldOut out{truth_curves(truth, group), {}};
  out.predicted = predict_group(model, truth, group, out.truth.freqs_mhz);
  return out;
}

AccuracyReport evaluate_accuracy(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const GeneralPurposeModel& gp, std::span<const std::string> report,
    const ml::Regressor* prototype) {
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "workload list does not match dataset groups");

  // Default to every group that survived the sweep: groups whose baseline
  // or every frequency point failed (Dataset::group_ok == false) have no
  // truth curves and cannot be folds. Explicitly requested inputs are
  // still validated below — asking for a failed group is a caller error.
  std::vector<std::string> all_names;
  if (report.empty()) {
    for (std::size_t g = 0; g < dataset.num_groups(); ++g) {
      if (dataset.group_ok(static_cast<int>(g))) {
        all_names.push_back(dataset.group_names[g]);
      }
    }
    DSEM_ENSURE(!all_names.empty(),
                "evaluate_accuracy: no usable dataset groups");
    report = all_names;
  }

  // Leave-one-input-out folds run one after another: each trains its own
  // model and writes one pre-sized row, and the forest fits inside it
  // already fill the global pool with their trees. A fold model is two
  // forests of full-depth trees, so only one is ever alive.
  AccuracyReport out;
  out.rows.resize(report.size());
  trace::Span loocv_span("loocv.evaluate", trace::cat::kEval);
  loocv_span.value(static_cast<double>(report.size()));
  for (std::size_t i = 0; i < report.size(); ++i) {
    // Logical ROOT per fold: the fold's training span and prediction
    // events key off the fold index, not the executing thread.
    trace::Span fold_span("loocv.fold", trace::cat::kEval, i);
    fold_span.arg(report[i]);
    metrics::counter("loocv.folds");
    metrics::ScopedTimer fold_timer("loocv.fold_s");
    const int g = dataset.group_of(report[i]);
    out.rows[i] = score_fold(dataset, workloads, gp, g,
                             hold_out(dataset, dataset, g,
                                      fresh_model(prototype)));
  }
  return out;
}

ParetoEvaluation evaluate_pareto(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const std::string& target_input, const GeneralPurposeModel& gp,
    const ml::Regressor* prototype) {
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "workload list does not match dataset groups");
  const int g = dataset.group_of(target_input);
  DSEM_ENSURE(dataset.group_ok(g),
              "evaluate_pareto: target group unusable (failed sweep): " +
                  target_input);
  trace::Span span("pareto.evaluate", trace::cat::kEval);
  span.arg(target_input);
  metrics::ScopedTimer timer("eval.pareto_s");

  HeldOut fold = hold_out(dataset, dataset, g, fresh_model(prototype));
  ParetoEvaluation out;
  out.truth = std::move(fold.truth);
  out.true_front = pareto_front(out.truth.speedup, out.truth.norm_energy);

  // Predicted Pareto frequency sets come from the *predicted* objectives;
  // they are then judged at the *measured* objectives those frequencies
  // actually achieve (§5.2.2).
  out.ds_front = fold.predicted.pareto_indices();
  out.gp_front =
      predict_gp(dataset, workloads, gp, g, out.truth.freqs_mhz)
          .pareto_indices();
  out.ds_cmp = compare_pareto(out.truth.speedup, out.truth.norm_energy,
                              out.true_front, out.ds_front);
  out.gp_cmp = compare_pareto(out.truth.speedup, out.truth.norm_energy,
                              out.true_front, out.gp_front);
  return out;
}

ExtrapolationReport evaluate_extrapolation(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const GeneralPurposeModel& gp, std::size_t holdout_count,
    const ml::Regressor* prototype) {
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "workload list does not match dataset groups");
  DSEM_ENSURE(holdout_count >= 1, "extrapolation needs a non-empty holdout");

  // Rank usable groups by total work (sum of work items over the
  // workload's launch classes): the largest inputs become the held-out
  // extrapolation set, everything smaller the training range.
  std::vector<std::pair<double, int>> by_work;
  for (std::size_t g = 0; g < dataset.num_groups(); ++g) {
    if (!dataset.group_ok(static_cast<int>(g))) {
      continue;
    }
    double work = 0.0;
    for (const KernelLaunch& l : workloads[g]->kernel_launches()) {
      work += static_cast<double>(l.work_items) * l.launches;
    }
    by_work.emplace_back(work, static_cast<int>(g));
  }
  DSEM_ENSURE(by_work.size() > holdout_count,
              "extrapolation holdout would leave no training groups");
  std::sort(by_work.begin(), by_work.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  by_work.resize(holdout_count);

  std::vector<bool> held(dataset.num_groups(), false);
  ExtrapolationReport out;
  for (const auto& [work, g] : by_work) {
    held[static_cast<std::size_t>(g)] = true;
    out.held_out.push_back(dataset.group_names[static_cast<std::size_t>(g)]);
  }

  std::vector<std::size_t> train_rows;
  train_rows.reserve(dataset.rows());
  for (std::size_t i = 0; i < dataset.groups.size(); ++i) {
    if (!held[static_cast<std::size_t>(dataset.groups[i])]) {
      train_rows.push_back(i);
    }
  }
  DSEM_ENSURE(!train_rows.empty(), "extrapolation split has no training rows");

  trace::Span span("extrapolation.evaluate", trace::cat::kEval);
  span.value(static_cast<double>(holdout_count));
  metrics::ScopedTimer timer("eval.extrapolation_s");
  // Every held-out group is scored by the one model trained on the rest.
  DomainSpecificModel model = fresh_model(prototype);
  model.train(dataset, train_rows);
  for (const auto& [work, g] : by_work) {
    HeldOut fold{truth_curves(dataset, g), {}};
    fold.predicted = predict_group(model, dataset, g, fold.truth.freqs_mhz);
    out.accuracy.rows.push_back(score_fold(dataset, workloads, gp, g, fold));
  }
  return out;
}

} // namespace dsem::core
