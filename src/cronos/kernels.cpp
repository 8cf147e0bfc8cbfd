#include "cronos/kernels.hpp"

#include "common/error.hpp"

namespace dsem::cronos {

sim::KernelProfile compute_changes_profile(int num_vars) {
  const auto nv = static_cast<double>(num_vars);
  sim::KernelProfile p;
  p.name = "cronos::computeChanges";
  // Per axis: 4 face reconstructions (minmod: ~6 add-class ops per var),
  // 2 Rusanov fluxes (2 physical flux evaluations each; ~6 mul + 4 add per
  // var for MHD-class fluxes), plus the per-cell CFL rate (sqrt-heavy).
  p.float_add = 3.0 * (4.0 * 6.0 + 2.0 * 4.0) * nv + 6.0;
  p.float_mul = 3.0 * (2.0 * 6.0 + 4.0) * nv + 8.0;
  p.float_div = 2.0 * 3.0 + 2.0; // velocity = momentum / rho per axis pair
  p.special_fn = 3.0 + 1.0;      // sqrt in wavespeeds per axis + CFL
  p.int_add = 24.0;              // index arithmetic for the 13-pt gather
  p.int_mul = 12.0;
  // Effective DRAM traffic: the 13-point gather hits mostly cached lines;
  // ~5 unique state loads + dudt and cfl stores per cell.
  p.global_bytes = (5.0 * nv + nv + 1.0) * 8.0;
  p.local_bytes = 2.0 * nv * 8.0; // staged stencil values
  return p;
}

sim::KernelProfile cfl_reduce_profile() {
  sim::KernelProfile p;
  p.name = "cronos::cflReduce";
  p.float_add = 1.0; // compare-max
  p.int_add = 2.0;
  p.global_bytes = 8.0;
  p.local_bytes = 8.0; // tree reduction through shared memory
  return p;
}

sim::KernelProfile integrate_time_profile(int num_vars) {
  const auto nv = static_cast<double>(num_vars);
  sim::KernelProfile p;
  p.name = "cronos::integrateTime";
  p.float_add = 2.0 * nv; // axpy-style RK combination
  p.float_mul = 2.0 * nv;
  p.int_add = 6.0;
  p.global_bytes = 3.0 * nv * 8.0; // read u0 + dudt, write u
  return p;
}

sim::KernelProfile apply_boundary_profile(int num_vars) {
  const auto nv = static_cast<double>(num_vars);
  sim::KernelProfile p;
  p.name = "cronos::applyBoundary";
  p.float_add = 1.0;
  p.int_add = 10.0; // ghost index remapping
  p.int_mul = 4.0;
  p.global_bytes = 2.0 * nv * 8.0; // copy one cell per ghost cell
  return p;
}

std::size_t ghost_cell_count(const GridDims& dims) {
  const auto ext = [](int n) {
    return static_cast<std::size_t>(n + 2 * kGhost);
  };
  return ext(dims.nx) * ext(dims.ny) * ext(dims.nz) - dims.cell_count();
}

std::array<synergy::KernelLaunch, 4> substep_launches(const GridDims& dims,
                                                      int num_vars) {
  const std::size_t cells = dims.cell_count();
  return {{{compute_changes_profile(num_vars), cells, {}},
           {cfl_reduce_profile(), cells, {}},
           {integrate_time_profile(num_vars), cells, {}},
           {apply_boundary_profile(num_vars), ghost_cell_count(dims), {}}}};
}

void submit_step_kernels(synergy::Queue& queue, const GridDims& dims,
                         int num_vars, int steps) {
  DSEM_ENSURE(steps >= 1, "steps must be >= 1");
  const auto launches = substep_launches(dims, num_vars);
  for (int substep = 0; substep < 3 * steps; ++substep) {
    for (const synergy::KernelLaunch& launch : launches) {
      queue.submit(launch);
    }
  }
}

} // namespace dsem::cronos
