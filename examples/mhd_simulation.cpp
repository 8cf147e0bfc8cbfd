// Magnetohydrodynamics example: a real Cronos run — the Orszag-Tang
// vortex, the classic 2-D ideal-MHD benchmark — solved with the
// finite-volume solver while the SYnergy queue meters the simulated
// device. Prints physics diagnostics per interval and the energy bill.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "cronos/problems.hpp"
#include "cronos/solver.hpp"
#include "obs/session.hpp"

namespace {

using namespace dsem;

struct Diagnostics {
  double mass = 0.0;
  double kinetic = 0.0;
  double magnetic = 0.0;
  double max_mach = 0.0;
};

Diagnostics diagnose(const cronos::Solver& solver) {
  const auto& dims = solver.config().dims;
  const cronos::IdealMhdLaw& law =
      dynamic_cast<const cronos::IdealMhdLaw&>(solver.law());
  Diagnostics d;
  std::array<double, 8> u{};
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        solver.state().cell(z, y, x, u);
        d.mass += u[0];
        const double ke =
            0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
        const double me = 0.5 * (u[5] * u[5] + u[6] * u[6] + u[7] * u[7]);
        d.kinetic += ke;
        d.magnetic += me;
        const double v = std::sqrt(2.0 * ke / u[0]);
        const double cs =
            std::sqrt(law.gamma() * law.gas_pressure(u) / u[0]);
        d.max_mach = std::max(d.max_mach, v / cs);
      }
    }
  }
  return d;
}

} // namespace

int main(int argc, char** argv) {
  CliParser cli("mhd_simulation",
                "Orszag-Tang vortex with energy profiling");
  cli.add_option("resolution", "grid cells per side", "64");
  cli.add_option("end-time", "simulation end time", "0.25");
  cli.add_option("frequency", "core clock in MHz (0 = device default)", "0");
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);
  const int n = cli.option_int32("resolution");
  const double end_time = cli.option_double("end-time");
  const double freq = cli.option_double("frequency");

  sim::Device v100_sim(sim::v100(), sim::NoiseConfig{}, 0x0527A6);
  synergy::Device device(v100_sim);
  synergy::Queue queue(device, synergy::ExecMode::kValidate);
  if (freq > 0.0) {
    queue.set_target_frequency(freq);
  }

  const double gamma = 5.0 / 3.0;
  cronos::SolverConfig config;
  config.dims = {n, n, 1};
  config.cfl_number = 0.4;
  cronos::Solver solver(std::make_shared<cronos::IdealMhdLaw>(gamma), config);
  solver.initialize(cronos::orszag_tang(gamma));

  std::cout << "Orszag-Tang vortex, " << n << "x" << n
            << " grid, ideal MHD (gamma = 5/3), end time " << end_time
            << ", core clock " << fmt(device.current_frequency(), 0)
            << " MHz\n\n";

  Table table({"t", "dt", "mass", "kinetic_E", "magnetic_E", "max_mach"});
  const int intervals = 5;
  for (int k = 1; k <= intervals; ++k) {
    solver.run_until(queue, end_time * k / intervals);
    const Diagnostics d = diagnose(solver);
    table.add_row({fmt(solver.time(), 3), fmt(solver.dt(), 5),
                   fmt(d.mass, 2), fmt(d.kinetic, 2), fmt(d.magnetic, 2),
                   fmt(d.max_mach, 3)});
  }
  table.print(std::cout);

  std::cout << "\nsimulated-device energy bill:\n";
  Table bill({"kernel", "launches", "time_s", "energy_j"});
  for (const auto& s : queue.kernel_summaries()) {
    bill.add_row(
        {s.name, fmt(s.launches), fmt(s.time_s, 5), fmt(s.energy_j, 3)});
  }
  bill.print(std::cout);
  std::cout << "total: " << fmt(queue.total_time_s(), 4) << " s GPU busy, "
            << fmt(queue.total_energy_j(), 2) << " J\n";
  session.finish(std::cout, "mhd_simulation");
  return 0;
}
