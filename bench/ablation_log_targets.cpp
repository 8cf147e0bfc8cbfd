// Ablation: raw vs log-transformed regression targets in the
// domain-specific model. Log targets make ensemble blending geometric, so
// magnitude differences between neighbouring inputs cancel in the
// speedup / normalized-energy ratios (see ds_model.hpp).
#include "bench_util.hpp"
#include "common/statistics.hpp"
#include "ml/forest.hpp"

namespace {

using namespace dsem;

std::pair<double, double> loocv_mape(const core::Dataset& dataset,
                                     bool log_targets) {
  double worst = 0.0;
  double mean = 0.0;
  for (int g = 0; g < static_cast<int>(dataset.num_groups()); ++g) {
    const auto [truth, pred] = core::hold_out(
        dataset, dataset, g,
        core::DomainSpecificModel(ml::RandomForestRegressor{}, log_targets));
    const double mape = stats::mape(truth.norm_energy, pred.norm_energy);
    worst = std::max(worst, mape);
    mean += mape;
  }
  return {mean / static_cast<double>(dataset.num_groups()), worst};
}

} // namespace

int main() {
  using namespace dsem;
  bench::Rig rig;

  // LiGen spans 4 orders of magnitude in ligand count: the regime where
  // target scaling matters.
  std::vector<std::unique_ptr<core::Workload>> workloads;
  for (int ligands : {2, 256, 4096, 10000}) {
    for (int atoms : {31, 89}) {
      for (int frags : {4, 20}) {
        workloads.push_back(
            std::make_unique<core::LigenWorkload>(ligands, atoms, frags));
      }
    }
  }
  const core::Dataset dataset = core::build_dataset(
      rig.v100, workloads, 5,
      core::every_nth(rig.v100.supported_frequencies(), 4));

  print_banner(std::cout,
               "Target-transform ablation — LiGen normalized-energy LOOCV "
               "MAPE, raw vs log targets");
  Table table({"targets", "mean_mape", "worst_mape"});
  for (bool log_targets : {false, true}) {
    const auto [mean, worst] = loocv_mape(dataset, log_targets);
    table.add_row({log_targets ? "log(time), log(energy)" : "raw",
                   fmt(mean, 4), fmt(worst, 4)});
  }
  table.print(std::cout);
  return 0;
}
