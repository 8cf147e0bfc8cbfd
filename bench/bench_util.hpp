// Shared plumbing for the figure/table reproduction benches: device
// construction, standard table renderings of characterizations and
// accuracy reports, and the paper's workload grids.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/characterization.hpp"
#include "core/evaluation.hpp"
#include "core/workload.hpp"
#include "sim/device.hpp"

namespace dsem::bench {

/// Simulated devices used throughout (seeded measurement noise as §5.1).
struct Rig {
  Rig();
  sim::Device v100_sim;
  sim::Device mi100_sim;
  synergy::Device v100;
  synergy::Device mi100;
};

/// Prints a characterization as the data behind one scatter plot: CSV
/// series (freq, time, energy, speedup, norm_energy, pareto) followed by a
/// human-readable summary of the extremes.
void print_characterization(std::ostream& os, const std::string& title,
                            const core::Characterization& c);

/// Prints raw energy-vs-time series (Figs. 6-9 style).
struct EnergyTimeSeries {
  std::string label;
  std::vector<double> freqs_mhz;
  std::vector<double> time_s;
  std::vector<double> energy_j;
};
void print_energy_time(std::ostream& os, const std::string& title,
                       std::span<const EnergyTimeSeries> series);

/// Sweeps a workload and packages the raw series.
EnergyTimeSeries sweep_series(synergy::Device& device,
                              const core::Workload& workload,
                              const std::string& label, int repetitions = 5);

/// Prints a Fig. 13-style MAPE comparison table.
void print_accuracy_report(std::ostream& os, const std::string& title,
                           const core::AccuracyReport& report);

/// Prints a Fig. 14-style Pareto comparison.
void print_pareto_evaluation(std::ostream& os, const std::string& title,
                             const core::ParetoEvaluation& eval);

/// The model-family printers below compare GP vs DS vs hybrid from two
/// evaluations of the same groups: `ds` on the built dataset and `hybrid`
/// on its core::fuse_dataset. The GP columns come from `ds`.

/// Prints the model-family MAPE comparison table.
void print_family_accuracy(std::ostream& os, const std::string& title,
                           const core::AccuracyReport& ds,
                           const core::AccuracyReport& hybrid);

/// Prints the model-family predicted-Pareto comparison for one input.
void print_family_pareto(std::ostream& os, const std::string& title,
                         const core::ParetoEvaluation& ds,
                         const core::ParetoEvaluation& hybrid);

/// Prints the extrapolation split (largest inputs held out) results.
void print_extrapolation(std::ostream& os, const std::string& title,
                         const core::ExtrapolationReport& ds,
                         const core::ExtrapolationReport& hybrid);

/// The paper's Cronos grids (§5.1) plus interpolation-support grids.
std::vector<std::unique_ptr<core::Workload>> cronos_workloads(int steps = 10);
/// Names of the five canonical grids reported in Fig. 13a/b.
std::vector<std::string> cronos_reported();

/// The paper's LiGen tuple grid (§5.1): (l, a, f) in
/// {2,16,256,1024,4096,10000} x {31,63,74,89} x {4,8,16,20}.
std::vector<std::unique_ptr<core::Workload>> ligen_workloads();
/// The twelve inputs reported in Fig. 13c/d.
std::vector<std::string> ligen_reported();

} // namespace dsem::bench
