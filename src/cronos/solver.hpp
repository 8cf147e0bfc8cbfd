// Finite-volume solver implementing the paper's Algorithm 1.
//
// Per timestep:  3 SSP-RK substeps, each = computeChanges (13-point
// MUSCL/Rusanov stencil + per-cell CFL rate) -> max-reduction of the CFL
// buffer -> integrateTime (RK combination) -> applyBoundary; then the
// timestep delta for the *next* step is adjusted from the reduced CFL,
// exactly as the pseudocode does.
//
// Every kernel is submitted through a synergy::Queue: in Validate mode the
// real numerics run on the host thread pool and the simulated device is
// charged the kernel's cost; in SimOnly mode only the device advances
// (state is frozen), which is what the frequency sweeps use.
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "cronos/grid.hpp"
#include "cronos/law.hpp"
#include "synergy/queue.hpp"

namespace dsem::cronos {

/// Largest variable count supported without heap-allocating in the inner
/// stencil loops (ideal MHD has 8).
inline constexpr int kMaxVars = 8;

enum class BoundaryKind { kPeriodic, kOutflow, kReflecting };

struct SolverConfig {
  GridDims dims;
  std::array<double, 3> domain_size = {1.0, 1.0, 1.0};
  double cfl_number = 0.4;
  std::array<BoundaryKind, 3> boundaries = {
      BoundaryKind::kPeriodic, BoundaryKind::kPeriodic,
      BoundaryKind::kPeriodic};
  double max_dt = 1e30; ///< cap when wavespeeds vanish
};

struct StepStats {
  double dt = 0.0;       ///< timestep advanced by this step
  double time = 0.0;     ///< simulation time after the step
  double max_rate = 0.0; ///< reduced CFL rate (1/s) driving the next dt
};

struct RunStats {
  int steps = 0;
  double simulated_time = 0.0;
};

class Solver {
public:
  Solver(std::shared_ptr<const ConservationLaw> law, SolverConfig config);

  const ConservationLaw& law() const noexcept { return *law_; }
  const SolverConfig& config() const noexcept { return config_; }
  State& state() noexcept { return u_; }
  const State& state() const noexcept { return u_; }

  double time() const noexcept { return time_; }
  double dt() const noexcept { return dt_; }
  double last_max_rate() const noexcept { return max_rate_; }

  std::array<double, 3> cell_size() const noexcept;
  /// Coordinates of the centre of interior cell (z, y, x).
  std::array<double, 3> cell_center(int z, int y, int x) const noexcept;

  /// Sets the interior from an initial condition sampled at cell centres
  /// (callback receives x, y, z and writes the conserved state), fills the
  /// halos, and primes the first timestep from the initial CFL rate.
  void initialize(
      const std::function<void(double, double, double, std::span<double>)>& ic);

  /// One full timestep (Algorithm 1 loop body) through the queue.
  StepStats step(synergy::Queue& queue);

  /// Fixed number of steps (used by the energy experiments).
  RunStats run(synergy::Queue& queue, int steps);

  /// Advance until `end_time` (Validate-mode only: needs real numerics).
  RunStats run_until(synergy::Queue& queue, double end_time,
                     int max_steps = 1000000);

  // Direct numeric entry points (host execution, no device accounting);
  // used by unit tests and by the step kernels' host implementations.
  void compute_changes(const State& u, State& dudt, Field3D& cfl) const;
  double reduce_max_rate(const Field3D& cfl) const;
  void apply_boundary();

private:
  void integrate_substep(int substep);
  void fill_axis_boundary(int axis);

  std::shared_ptr<const ConservationLaw> law_;
  SolverConfig config_;
  State u_;      ///< current state
  State u0_;     ///< state at the start of the RK step
  State dudt_;   ///< change buffer
  Field3D cfl_;  ///< per-cell CFL rate buffer
  double time_ = 0.0;
  double dt_ = 0.0;
  double max_rate_ = 0.0;
  bool initialized_ = false;
};

} // namespace dsem::cronos
