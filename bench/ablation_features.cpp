// Ablation: drop one domain feature at a time and measure the LOOCV MAPE
// degradation of the domain-specific models — validates the Table 2
// feature selections.
#include "bench_util.hpp"
#include "common/statistics.hpp"

namespace {

using namespace dsem;

/// Dataset copy with one feature column zeroed (the forest then cannot
/// split on it, equivalent to dropping it).
core::Dataset drop_feature(const core::Dataset& dataset, std::size_t col) {
  core::Dataset out = dataset;
  for (std::size_t r = 0; r < out.x.rows(); ++r) {
    out.x(r, col) = 0.0;
  }
  return out;
}

struct AblationScore {
  double norm_energy_mape = 0.0; ///< ratio-curve accuracy
  double abs_time_mape = 0.0;    ///< absolute runtime accuracy
};

AblationScore loocv_scores(const core::Dataset& dataset) {
  AblationScore score;
  for (int g = 0; g < static_cast<int>(dataset.num_groups()); ++g) {
    const auto [truth, pred] =
        core::hold_out(dataset, dataset, g, core::DomainSpecificModel());
    score.norm_energy_mape += stats::mape(truth.norm_energy, pred.norm_energy);
    score.abs_time_mape += stats::mape(truth.time_s, pred.time_s);
  }
  const auto n = static_cast<double>(dataset.num_groups());
  score.norm_energy_mape /= n;
  score.abs_time_mape /= n;
  return score;
}

void run(const std::string& app, synergy::Device& device,
         std::vector<std::unique_ptr<core::Workload>> workloads) {
  const core::Dataset dataset = core::build_dataset(
      device, workloads, 5, core::every_nth(device.supported_frequencies(), 4));
  const auto names = workloads.front()->feature_names();

  print_banner(std::cout, "Feature ablation — " + app);
  Table table({"configuration", "norm_energy_mape", "abs_time_mape"});
  const AblationScore full = loocv_scores(dataset);
  table.add_row({"all features", fmt(full.norm_energy_mape, 4),
                 fmt(full.abs_time_mape, 4)});
  for (std::size_t col = 0; col < names.size(); ++col) {
    const core::Dataset reduced = drop_feature(dataset, col);
    const AblationScore s = loocv_scores(reduced);
    table.add_row({"without " + names[col], fmt(s.norm_energy_mape, 4),
                   fmt(s.abs_time_mape, 4)});
  }
  table.print(std::cout);
  std::cout << "\nRatio curves (normalized energy) hinge on the "
               "utilization-setting feature; absolute runtime needs the "
               "full Table 2 feature set.\n";
}

} // namespace

int main() {
  bench::Rig rig;
  {
    // The canonical grids are aspect-locked (every axis scales together),
    // which makes single axes redundant; anisotropic grids are added so
    // the ablation can actually distinguish them.
    auto workloads = bench::cronos_workloads();
    for (auto dims : {cronos::GridDims{160, 16, 16},
                      cronos::GridDims{16, 128, 32},
                      cronos::GridDims{32, 16, 128},
                      cronos::GridDims{120, 8, 48}}) {
      workloads.push_back(std::make_unique<core::CronosWorkload>(dims, 10));
    }
    run("Cronos", rig.v100, std::move(workloads));
  }
  {
    std::vector<std::unique_ptr<core::Workload>> workloads;
    for (int ligands : {2, 256, 4096, 10000}) {
      for (int atoms : {31, 89}) {
        for (int frags : {4, 20}) {
          workloads.push_back(
              std::make_unique<core::LigenWorkload>(ligands, atoms, frags));
        }
      }
    }
    run("LiGen", rig.v100, std::move(workloads));
  }
  return 0;
}
