// Figure 1: LiGen and Cronos multi-objective characterization on the
// NVIDIA V100 — speedup vs normalized energy across all 196 core
// frequencies, with the Pareto-optimal configurations flagged.
//
// Accepts the shared fault-injection knobs (--fault-rate, --help for the
// rest): with a nonzero rate the sweep retries transient device faults,
// drops the grid points that exhaust their attempts, and appends the
// recovery accounting to the output.
#include "bench_util.hpp"

#include <chrono>

#include "common/cli.hpp"
#include "common/statistics.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/evaluation.hpp"
#include "core/kernel_features.hpp"
#include "core/sweep_report.hpp"
#include "microbench/suite.hpp"
#include "obs/session.hpp"

namespace {

using namespace dsem;

// Repackages an already-measured characterization curve as a one-group
// training dataset — no extra sweeping.
core::Dataset dataset_from(const core::Workload& workload,
                           const core::Characterization& c) {
  const std::vector<double> features = workload.domain_features();
  core::Dataset d;
  d.x = ml::Matrix(c.points.size(), features.size() + 1);
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    auto row = d.x.row(i);
    std::copy(features.begin(), features.end(), row.begin());
    row[features.size()] = c.points[i].freq_mhz;
    d.time_s.push_back(c.points[i].time_s);
    d.energy_j.push_back(c.points[i].energy_j);
    d.groups.push_back(0);
  }
  d.group_names.push_back(workload.name());
  d.group_default.push_back({c.default_time_s, c.default_energy_j});
  d.default_freq_mhz.push_back(c.default_freq_mhz);
  return d;
}

// Trains the domain-specific model on the measured curve and reports the
// in-sample fit — a cheap self-consistency check on the model plumbing
// (and the source of the train.ds spans in the trace).
void print_model_self_fit(std::ostream& os, const core::Workload& workload,
                          const core::Characterization& c) {
  if (!c.baseline_ok || c.points.empty()) {
    os << "model self-fit: skipped (degraded characterization)\n";
    return;
  }
  const core::Dataset d = dataset_from(workload, c);
  core::DomainSpecificModel model;
  model.train(d);
  std::vector<double> freqs;
  std::vector<double> speedup;
  std::vector<double> norm_energy;
  for (const core::CharacterizationPoint& p : c.points) {
    freqs.push_back(p.freq_mhz);
    speedup.push_back(p.speedup);
    norm_energy.push_back(p.norm_energy);
  }
  const core::Prediction pred =
      model.predict(workload.domain_features(), freqs, c.default_freq_mhz);
  os << "model self-fit (in-sample): speedup MAPE "
     << fmt_percent(stats::mape(speedup, pred.speedup)) << ", energy MAPE "
     << fmt_percent(stats::mape(norm_energy, pred.norm_energy)) << "\n";
}

// Model-family comparison (GP vs DS vs hybrid) on a compact
// Cronos grid: leave-one-input-out accuracy, predicted-Pareto quality for
// the Fig. 1b input, and the extrapolation split that holds out the
// largest grid — where the hybrid family's execution-model features are
// designed to beat the input-size-blind GP baseline.
void print_model_families(std::ostream& os, bench::Rig& rig,
                          const core::SweepOptions& options) {
  std::vector<std::unique_ptr<core::Workload>> workloads;
  for (const int n : {10, 20, 40, 80, 120, 160}) {
    const int side = std::max(4, n * 2 / 5);
    workloads.push_back(std::make_unique<core::CronosWorkload>(
        cronos::GridDims{n, side, side}, 10));
  }
  const std::vector<double> freqs =
      core::every_nth(rig.v100.supported_frequencies(), 8);
  const core::Dataset dataset =
      core::build_dataset(rig.v100, workloads, options, freqs);

  core::GeneralPurposeModel gp;
  gp.train(rig.v100, microbench::make_suite(), options, 16);
  // The hybrid family: the same evaluations on fused rows, with its own
  // forest seed.
  const core::Dataset fused =
      core::fuse_dataset(dataset, workloads, rig.v100.spec());
  const ml::RandomForestRegressor hybrid(core::hybrid_forest_params());

  bench::print_family_accuracy(
      os, "Model families — LOOCV accuracy (GP vs DS vs hybrid), Cronos on "
          "V100",
      core::evaluate_accuracy(dataset, workloads, gp),
      core::evaluate_accuracy(fused, workloads, gp, {}, &hybrid));

  bench::print_family_pareto(
      os, "Model families — predicted Pareto fronts for 80x32x32",
      core::evaluate_pareto(dataset, workloads, "80x32x32", gp),
      core::evaluate_pareto(fused, workloads, "80x32x32", gp, &hybrid));

  bench::print_extrapolation(
      os, "Model families — extrapolation split (largest grid held out)",
      core::evaluate_extrapolation(dataset, workloads, gp),
      core::evaluate_extrapolation(fused, workloads, gp, 1, &hybrid));
}

} // namespace

int main(int argc, char** argv) {
  using namespace dsem;
  CliParser cli("fig01_characterization",
                "Fig. 1 — LiGen/Cronos characterization on the V100");
  core::add_fault_cli_options(cli);
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);

  bench::Rig rig;
  rig.v100_sim.set_fault_config(core::fault_config_from_cli(cli));

  core::SweepReport report;
  core::SweepOptions options;
  options.retry = core::retry_policy_from_cli(cli);
  options.report = &report;

  const auto start = std::chrono::steady_clock::now();
  const core::LigenWorkload ligen(4096, 89, 8);
  const core::Characterization ligen_c =
      core::characterize(rig.v100, ligen, options);
  bench::print_characterization(std::cout, "Fig. 1a — LiGen on NVIDIA V100",
                                ligen_c);
  print_model_self_fit(std::cout, ligen, ligen_c);

  const core::CronosWorkload cronos({80, 32, 32}, 10);
  const core::Characterization cronos_c =
      core::characterize(rig.v100, cronos, options);
  bench::print_characterization(std::cout, "Fig. 1b — Cronos on NVIDIA V100",
                                cronos_c);
  print_model_self_fit(std::cout, cronos, cronos_c);
  print_model_families(std::cout, rig, options);
  report.add_phase(
      "characterization",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());

  std::cout << "\n";
  core::print_sweep_report(std::cout, report);
  session.finish(std::cout, "fig01_characterization",
                 core::sweep_report_to_json(report));
  return 0;
}
