// Quickstart: the full domain-specific energy-modeling workflow of the
// paper (Figs. 11 & 12) in one narrated run.
//
//   1. set up a simulated V100 behind the portable SYnergy-style API
//   2. sweep a few Cronos inputs across frequencies -> training dataset
//   3. train the domain-specific time & energy models (Random Forest)
//   4. predict the speedup / normalized-energy curve of an *unseen* input
//   5. extract the predicted Pareto-optimal frequencies and verify one
//      against a real measurement
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/evaluation.hpp"
#include "obs/session.hpp"

int main(int argc, char** argv) {
  using namespace dsem;

  CliParser cli("quickstart",
                "the paper's energy-modeling workflow in one narrated run");
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);

  // --- 1. device ----------------------------------------------------------
  sim::Device v100_sim(sim::v100(), sim::NoiseConfig{}, /*seed=*/0x9015);
  synergy::Device device(v100_sim);
  std::cout << "device: " << device.name() << " via " << device.vendor_api()
            << ", " << device.supported_frequencies().size()
            << " core frequencies, default "
            << fmt(device.default_frequency(), 0) << " MHz\n";

  // --- 2. training sweep ---------------------------------------------------
  std::vector<std::unique_ptr<core::Workload>> workloads;
  for (int n : {10, 20, 40, 80, 120, 160}) {
    const int side = std::max(4, n * 2 / 5);
    workloads.push_back(std::make_unique<core::CronosWorkload>(
        cronos::GridDims{n, side, side}, /*steps=*/10));
  }
  // Sample every 4th frequency during training; predict over all of them.
  const std::vector<double> all_freqs = device.supported_frequencies();
  const std::vector<double> train_freqs = core::every_nth(all_freqs, 4);
  std::cout << "\nmeasuring " << workloads.size() << " Cronos inputs x "
            << train_freqs.size() << " frequencies x 5 repetitions...\n";
  const core::Dataset dataset =
      core::build_dataset(device, workloads, 5, train_freqs);
  std::cout << "dataset: " << dataset.rows() << " samples (f, c, t, e)\n";

  // --- 3. train ------------------------------------------------------------
  core::DomainSpecificModel model;
  model.train(dataset);
  std::cout << "trained time and energy Random Forests\n";

  // --- 4. predict an unseen input -------------------------------------------
  const core::CronosWorkload target({100, 40, 40}, 10);
  std::cout << "\npredicting for unseen input " << target.name() << "...\n";
  const core::Prediction pred = model.predict(
      target.domain_features(), all_freqs, device.default_frequency());

  // --- 5. Pareto-optimal frequencies ----------------------------------------
  const auto front = pred.pareto_indices();
  std::cout << "predicted Pareto-optimal configurations ("
            << front.size() << " of " << all_freqs.size() << "):\n";
  Table table({"freq_mhz", "pred_speedup", "pred_norm_energy"});
  for (std::size_t k = 0; k < front.size(); k += std::max<std::size_t>(
           1, front.size() / 8)) {
    const std::size_t i = front[k];
    table.add_row({fmt(pred.freqs_mhz[i], 1), fmt(pred.speedup[i], 4),
                   fmt(pred.norm_energy[i], 4)});
  }
  table.print(std::cout);

  // Pick the Pareto config with the best energy at <= 2% predicted loss.
  std::size_t best = front.back();
  for (std::size_t i : front) {
    if (1.0 - pred.speedup[i] <= 0.02 &&
        pred.norm_energy[i] < pred.norm_energy[best]) {
      best = i;
    }
  }
  std::cout << "\nrecommended frequency: " << fmt(pred.freqs_mhz[best], 0)
            << " MHz (predicted " << fmt_percent(1.0 - pred.norm_energy[best])
            << " energy saving at " << fmt_percent(1.0 - pred.speedup[best])
            << " slowdown)\n";

  // Verify against real measurements.
  const core::Measurement def = core::measure_default(device, target, 5);
  const core::Measurement at =
      core::measure(device, target, pred.freqs_mhz[best], 5);
  const double measured_saving = 1.0 - at.energy_j / def.energy_j;
  const double measured_loss = 1.0 - def.time_s / at.time_s;
  std::cout << "measured:  " << fmt_percent(measured_saving)
            << " energy saving at " << fmt_percent(measured_loss)
            << " slowdown\n";
  session.finish(std::cout, "quickstart");
  return 0;
}
