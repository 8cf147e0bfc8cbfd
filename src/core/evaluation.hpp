// Model-accuracy evaluation — the paper's §5.2 methodology.
//
// Fig. 13: leave-one-input-out cross-validation of the domain-specific
// models against the general-purpose baseline: for every held-out input,
// both models predict the speedup and normalized-energy curves over all
// frequencies and the MAPE against the measured curves is reported.
//
// Fig. 14: both models' predicted Pareto-optimal frequency sets for one
// input, evaluated at the *measured* objectives those frequencies achieve
// (the values one would obtain actually running the application there),
// compared against the true Pareto set.
//
// hold_out() is the protocol's one fold: a fresh frequency model
// (DomainSpecificModel) trains on every row outside the held-out group
// and is queried with the group's own row prefix (the row without its
// frequency column). evaluate_accuracy, evaluate_pareto and the LOOCV
// benches run it; evaluate_extrapolation, which trains once for its whole
// holdout, shares its query. Called on a built dataset that scores the
// domain-specific family; called on its fuse_dataset() with a
// hybrid_forest_params() prototype it scores the hybrid family. The GP
// baseline columns are the same either way.
#pragma once

#include "core/characterization.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/gp_model.hpp"

namespace dsem::core {

/// One held-out input's MAPEs. The ds_* columns score the evaluated
/// frequency model: the hybrid family when the dataset is fused.
struct AccuracyRow {
  std::string input;
  double gp_speedup_mape = 0.0;
  double ds_speedup_mape = 0.0;
  double gp_energy_mape = 0.0;
  double ds_energy_mape = 0.0;
};

struct AccuracyReport {
  std::vector<AccuracyRow> rows;

  /// min over rows of (gp_mape / ds_mape) for each objective — the
  /// paper's ">= 10x more accurate" claim is about this ratio.
  double worst_speedup_gain() const;
  double worst_energy_gain() const;
};

/// Ground-truth speedup / normalized-energy curves of one dataset group,
/// derived from its measured rows and default baseline.
struct TruthCurves {
  std::vector<double> freqs_mhz;
  std::vector<double> speedup;
  std::vector<double> norm_energy;
  std::vector<double> time_s;
  std::vector<double> energy_j;
};
TruthCurves truth_curves(const Dataset& dataset, int group);

/// One held-out fold: a group's measured curves and the curve a model
/// trained without it predicts over the same frequencies.
struct HeldOut {
  TruthCurves truth;
  Prediction predicted;
};

/// Trains `model` (unfitted; it carries its prototype and log_targets) on
/// every row of `train` outside `group`, and returns `group`'s measured
/// curves from `truth` with the model's curve over their frequencies,
/// queried with the group's row prefix and default clock in `truth`.
/// `truth` is usually `train` itself; it differs when the truth is
/// measured apart from the training sweep (a noise-free twin of the
/// device, or the full frequency grid under a strided training sweep).
/// Raises unless `train` and `truth` list the same groups.
HeldOut hold_out(const Dataset& train, const Dataset& truth, int group,
                 DomainSpecificModel model);

/// Leave-one-input-out evaluation over the dataset's groups.
/// `workloads` must be the same list (same order) build_dataset consumed;
/// `report` selects which inputs appear in the output, in that order
/// (empty = every usable group, in group order). `prototype` is cloned per
/// fold (null = Random Forest default). Folds run one after another, each
/// fit spreading its trees over the global pool; the output is
/// bit-identical for any pool size.
AccuracyReport evaluate_accuracy(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const GeneralPurposeModel& gp,
    std::span<const std::string> report = {},
    const ml::Regressor* prototype = nullptr);

struct ParetoEvaluation {
  TruthCurves truth;
  std::vector<std::size_t> true_front;
  std::vector<std::size_t> gp_front; ///< indices into truth arrays
  std::vector<std::size_t> ds_front;
  ParetoComparison gp_cmp;
  ParetoComparison ds_cmp;
};

/// Fig. 14 for one target input: models trained without it (DS) / on the
/// micro-benchmarks (GP) predict Pareto-optimal frequencies; the returned
/// fronts are evaluated at measured objectives.
ParetoEvaluation evaluate_pareto(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const std::string& target_input, const GeneralPurposeModel& gp,
    const ml::Regressor* prototype = nullptr);

/// Extrapolation split per Afzal et al.: the `holdout_count` groups with
/// the largest total work (sum of work items over the workload's kernel
/// launches) are held out together; the frequency model trains once on the
/// remaining groups and is scored, with GP, on the held-out inputs. This
/// probes prediction *beyond* the training size range, where input-feature
/// rows must extrapolate but fused rows can lean on their execution-model
/// features.
struct ExtrapolationReport {
  std::vector<std::string> held_out; ///< group names, largest-work first
  AccuracyReport accuracy;           ///< one row per held-out group
};

ExtrapolationReport evaluate_extrapolation(
    const Dataset& dataset,
    std::span<const std::unique_ptr<Workload>> workloads,
    const GeneralPurposeModel& gp, std::size_t holdout_count = 1,
    const ml::Regressor* prototype = nullptr);

} // namespace dsem::core
