// Drug-discovery example: an end-to-end LiGen virtual screening campaign.
//
// Generates a synthetic target pocket and a mixed chemical library, docks
// and scores every ligand (real numerics on the host, device cost
// simulated through the SYnergy queue), prints the candidate ranking, and
// shows the energy bill of running the campaign at the default clock vs a
// Pareto-chosen energy-saving frequency.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/characterization.hpp"
#include "ligen/screening.hpp"
#include "obs/session.hpp"

int main(int argc, char** argv) {
  using namespace dsem;
  CliParser cli("virtual_screening_campaign",
                "LiGen-style virtual screening with energy profiling");
  cli.add_option("ligands", "library size (real docking runs on the host)",
                 "48");
  cli.add_option("atoms", "atoms per ligand", "31");
  cli.add_option("fragments", "fragments per ligand", "4");
  cli.add_option("seed", "campaign seed", "20230801");
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);
  const int ligand_count = cli.option_int32("ligands");
  const int atoms = cli.option_int32("atoms");
  const int fragments = cli.option_int32("fragments");
  const auto seed = static_cast<std::uint64_t>(cli.option_int("seed"));

  std::cout << "generating target pocket and a library of " << ligand_count
            << " ligands (" << atoms << " atoms, " << fragments
            << " fragments each)...\n";
  const auto protein = ligen::Protein::generate_pocket(seed);
  const auto library =
      ligen::generate_library(ligand_count, atoms, fragments, seed + 1);

  sim::Device v100_sim(sim::v100(), sim::NoiseConfig{}, seed + 2);
  synergy::Device device(v100_sim);
  synergy::Queue queue(device, synergy::ExecMode::kValidate);

  ligen::VirtualScreen screen(protein);
  const auto result = screen.run(library, queue, seed + 3);

  std::cout << "\ntop candidates:\n";
  Table table({"rank", "ligand", "score"});
  const auto ranking = result.ranking();
  for (std::size_t r = 0; r < std::min<std::size_t>(10, ranking.size());
       ++r) {
    table.add_row({fmt(r + 1), library[ranking[r]].name(),
                   fmt(result.scores[ranking[r]], 4)});
  }
  table.print(std::cout);

  std::cout << "\nper-kernel device profile (simulated V100):\n";
  Table profile({"kernel", "launches", "time_s", "energy_j"});
  for (const auto& s : queue.kernel_summaries()) {
    profile.add_row(
        {s.name, fmt(s.launches), fmt(s.time_s, 5), fmt(s.energy_j, 3)});
  }
  profile.print(std::cout);

  // Frequency advice for a production-scale campaign of the same ligand
  // structure: characterize a 100k-ligand batch in sim-only mode.
  const core::LigenWorkload production(100000, atoms, fragments);
  const auto c = core::characterize(device, production, 5);
  const auto front = c.pareto_indices();
  std::size_t pick = front.back();
  for (std::size_t i : front) {
    if (1.0 - c.points[i].speedup <= 0.05 &&
        c.points[i].norm_energy < c.points[pick].norm_energy) {
      pick = i;
    }
  }
  const auto& p = c.points[pick];
  std::cout << "\nproduction-scale advice (100000 ligands): run at "
            << fmt(p.freq_mhz, 0) << " MHz instead of "
            << fmt(c.default_freq_mhz, 0) << " MHz -> "
            << fmt_percent(1.0 - p.norm_energy) << " energy saving at "
            << fmt_percent(1.0 - p.speedup) << " slowdown\n";
  session.finish(std::cout, "virtual_screening_campaign");
  return 0;
}
