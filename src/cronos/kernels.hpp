// Static kernel profiles (Table 1 features) of the Cronos solver steps.
//
// Each of Algorithm 1's four kernels gets a per-cell operation/traffic
// estimate, parameterised by the law's variable count. The counts are
// derived from the solver's inner loops (reconstruction + two Rusanov
// fluxes per axis for computeChanges, etc.); what matters downstream is
// their *structure* — computeChanges has low arithmetic intensity, which
// is what makes Cronos memory-bound and down-clock-friendly on large grids.
#pragma once

#include <array>

#include "cronos/grid.hpp"
#include "sim/kernel_profile.hpp"
#include "synergy/queue.hpp"

namespace dsem::cronos {

/// 13-point stencil flux computation + per-cell CFL rate.
sim::KernelProfile compute_changes_profile(int num_vars);

/// Parallel max-reduction over the per-cell CFL buffer.
sim::KernelProfile cfl_reduce_profile();

/// One SSP-RK substep state update.
sim::KernelProfile integrate_time_profile(int num_vars);

/// Halo exchange / boundary fill (runs over surface cells only).
sim::KernelProfile apply_boundary_profile(int num_vars);

/// Ghost cells around an interior of `dims` with the solver's halo depth.
std::size_t ghost_cell_count(const GridDims& dims);

/// The four launches of one SSP-RK substep, in submission order:
/// computeChanges, cflReduce and integrateTime over the interior cells,
/// applyBoundary over the ghost cells. No host implementations attached.
std::array<synergy::KernelLaunch, 4> substep_launches(const GridDims& dims,
                                                      int num_vars);

/// Submits the kernel sequence of one Solver::step (3 substeps x
/// {computeChanges, cflReduce, integrateTime, applyBoundary}) without any
/// host-side numerics — the fast path for frequency sweeps. A unit test
/// pins this sequence against the one Solver::step itself submits.
void submit_step_kernels(synergy::Queue& queue, const GridDims& dims,
                         int num_vars, int steps = 1);

} // namespace dsem::cronos
