// §5.2.1 — regression-algorithm selection: Linear, Lasso, SVR-RBF, and
// Random Forest cross-validated (leave-one-input-out) on both applications'
// datasets, plus the Random Forest hyperparameter grid search showing the
// library defaults win.
#include <map>

#include "bench_util.hpp"
#include "common/statistics.hpp"
#include "ml/lasso.hpp"
#include "ml/linear.hpp"
#include "ml/model_selection.hpp"
#include "ml/svr.hpp"

namespace {

using namespace dsem;

/// LOOCV MAPE of a DS model built from `proto`, averaged over held-out
/// speedup and normalized-energy curves of all groups.
std::pair<double, double> loocv_mape(const core::Dataset& dataset,
                                     const ml::Regressor& proto) {
  double speedup_acc = 0.0;
  double energy_acc = 0.0;
  for (int g = 0; g < static_cast<int>(dataset.num_groups()); ++g) {
    const auto [truth, pred] =
        core::hold_out(dataset, dataset, g, core::DomainSpecificModel(proto));
    speedup_acc += stats::mape(truth.speedup, pred.speedup);
    energy_acc += stats::mape(truth.norm_energy, pred.norm_energy);
  }
  const auto n = static_cast<double>(dataset.num_groups());
  return {speedup_acc / n, energy_acc / n};
}

void run_for_app(const std::string& app, synergy::Device& device,
                 std::vector<std::unique_ptr<core::Workload>> workloads) {
  const core::Dataset dataset = core::build_dataset(
      device, workloads, 5, core::every_nth(device.supported_frequencies(), 4));

  print_banner(std::cout, "Regressor selection — " + app);
  Table table({"algorithm", "speedup_mape", "norm_energy_mape"});
  const auto row = [&](const ml::Regressor& proto) {
    const auto [s, e] = loocv_mape(dataset, proto);
    table.add_row({proto.name(), fmt(s, 4), fmt(e, 4)});
  };
  row(ml::LinearRegressor{});
  row(ml::LassoRegressor{0.001});
  row(ml::SvrRbf{100.0, 0.01, 1.0, 200});
  ml::ForestParams fp;
  fp.seed = 0x5e1ec7;
  row(ml::RandomForestRegressor{fp});
  table.print(std::cout);

  // Hyperparameter grid search on the Random Forest (paper: default
  // parameters perform best). Scored on log-time LOOCV folds.
  std::vector<double> y(dataset.rows());
  for (std::size_t i = 0; i < dataset.rows(); ++i) {
    y[i] = std::log(dataset.time_s[i]);
  }
  const auto splits = ml::leave_one_group_out(dataset.groups);
  const std::map<std::string, std::vector<double>> grid = {
      {"n_estimators", {25.0, 100.0}},
      {"max_depth", {4.0, 0.0}},       // 0 = unlimited (the default)
      {"max_features", {2.0, 0.0}},    // 0 = all features (the default)
  };
  const auto result = ml::grid_search(
      grid,
      [](const std::map<std::string, double>& params) {
        ml::ForestParams p;
        p.n_estimators = static_cast<int>(params.at("n_estimators"));
        p.max_depth = static_cast<int>(params.at("max_depth"));
        p.max_features = static_cast<int>(params.at("max_features"));
        return std::make_unique<ml::RandomForestRegressor>(p);
      },
      dataset.x, y, splits,
      [](std::span<const double> truth, std::span<const double> pred) {
        return stats::mae(truth, pred);
      });
  std::cout << "\nRandom Forest grid search (" << result.evaluated
            << " combinations): best = { ";
  for (const auto& [name, value] : result.best_params) {
    std::cout << name << "=" << fmt(value, 0) << " ";
  }
  std::cout << "} (0 means library default / unlimited)\n";
}

} // namespace

int main() {
  bench::Rig rig;
  {
    auto workloads = bench::cronos_workloads();
    run_for_app("Cronos", rig.v100, std::move(workloads));
  }
  {
    // Reduced LiGen grid keeps the SVR kernel matrix tractable.
    std::vector<std::unique_ptr<core::Workload>> workloads;
    for (int ligands : {2, 256, 4096, 10000}) {
      for (int atoms : {31, 89}) {
        for (int frags : {4, 20}) {
          workloads.push_back(
              std::make_unique<core::LigenWorkload>(ligands, atoms, frags));
        }
      }
    }
    run_for_app("LiGen", rig.v100, std::move(workloads));
  }
  return 0;
}
