#include "cronos/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "cronos/kernels.hpp"

namespace dsem::cronos {

namespace {

double minmod(double a, double b) noexcept {
  if (a * b <= 0.0) {
    return 0.0;
  }
  return std::abs(a) < std::abs(b) ? a : b;
}

} // namespace

Solver::Solver(std::shared_ptr<const ConservationLaw> law, SolverConfig config)
    : law_(std::move(law)), config_(config) {
  DSEM_ENSURE(law_ != nullptr, "Solver needs a conservation law");
  DSEM_ENSURE(law_->num_vars() >= 1 && law_->num_vars() <= kMaxVars,
              "unsupported variable count");
  DSEM_ENSURE(config_.cfl_number > 0.0 && config_.cfl_number < 1.0,
              "CFL number must be in (0, 1)");
  for (double s : config_.domain_size) {
    DSEM_ENSURE(s > 0.0, "domain size must be positive");
  }
  const int nv = law_->num_vars();
  u_ = State(config_.dims, nv);
  u0_ = State(config_.dims, nv);
  dudt_ = State(config_.dims, nv);
  cfl_ = Field3D(config_.dims);
}

std::array<double, 3> Solver::cell_size() const noexcept {
  return {config_.domain_size[0] / config_.dims.nx,
          config_.domain_size[1] / config_.dims.ny,
          config_.domain_size[2] / config_.dims.nz};
}

std::array<double, 3> Solver::cell_center(int z, int y, int x) const noexcept {
  const auto h = cell_size();
  return {(x + 0.5) * h[0], (y + 0.5) * h[1], (z + 0.5) * h[2]};
}

void Solver::initialize(
    const std::function<void(double, double, double, std::span<double>)>& ic) {
  const int nv = law_->num_vars();
  std::vector<double> cell(static_cast<std::size_t>(nv));
  for (int z = 0; z < config_.dims.nz; ++z) {
    for (int y = 0; y < config_.dims.ny; ++y) {
      for (int x = 0; x < config_.dims.nx; ++x) {
        const auto c = cell_center(z, y, x);
        ic(c[0], c[1], c[2], cell);
        law_->validate_state(cell);
        u_.set_cell(z, y, x, cell);
      }
    }
  }
  apply_boundary();
  // Prime the first timestep from the initial CFL rate (the pseudocode's
  // adjustTimestepDelta has no prior step to draw on).
  compute_changes(u_, dudt_, cfl_);
  max_rate_ = reduce_max_rate(cfl_);
  dt_ = max_rate_ > 0.0 ? std::min(config_.cfl_number / max_rate_,
                                   config_.max_dt)
                        : config_.max_dt;
  time_ = 0.0;
  initialized_ = true;
}

void Solver::compute_changes(const State& u, State& dudt, Field3D& cfl) const {
  const int nv = law_->num_vars();
  const auto h = cell_size();
  const GridDims dims = config_.dims;
  const auto rows = static_cast<std::size_t>(dims.nz) *
                    static_cast<std::size_t>(dims.ny);

  parallel_for(0, rows, [&](std::size_t row) {
    const int z = static_cast<int>(row) / dims.ny;
    const int y = static_cast<int>(row) % dims.ny;

    // Fixed-size scratch: states at the five stencil points of one axis,
    // the two reconstructed face states, and flux accumulators.
    std::array<std::array<double, kMaxVars>, 5> s{};
    std::array<double, kMaxVars> ul{};
    std::array<double, kMaxVars> ur{};
    std::array<double, kMaxVars> fl{};
    std::array<double, kMaxVars> fr{};
    std::array<double, kMaxVars> face_lo{};
    std::array<double, kMaxVars> face_hi{};
    std::array<double, kMaxVars> du{};
    std::array<double, kMaxVars> center{};

    const auto nvs = static_cast<std::size_t>(nv);
    const auto face_flux = [&](Axis axis,
                               const std::array<double, kMaxVars>& um1,
                               const std::array<double, kMaxVars>& u0c,
                               const std::array<double, kMaxVars>& up1,
                               const std::array<double, kMaxVars>& up2,
                               std::array<double, kMaxVars>& out) {
      for (std::size_t v = 0; v < nvs; ++v) {
        ul[v] = u0c[v] + 0.5 * minmod(u0c[v] - um1[v], up1[v] - u0c[v]);
        ur[v] = up1[v] - 0.5 * minmod(up1[v] - u0c[v], up2[v] - up1[v]);
      }
      const std::span<const double> ul_s(ul.data(), nvs);
      const std::span<const double> ur_s(ur.data(), nvs);
      law_->flux(axis, ul_s, std::span<double>(fl.data(), nvs));
      law_->flux(axis, ur_s, std::span<double>(fr.data(), nvs));
      const double speed = std::max(law_->max_wavespeed(axis, ul_s),
                                    law_->max_wavespeed(axis, ur_s));
      for (std::size_t v = 0; v < nvs; ++v) {
        out[v] = 0.5 * (fl[v] + fr[v]) - 0.5 * speed * (ur[v] - ul[v]);
      }
    };

    for (int x = 0; x < dims.nx; ++x) {
      du.fill(0.0);
      for (int axis_i = 0; axis_i < 3; ++axis_i) {
        const auto axis = static_cast<Axis>(axis_i);
        for (int o = -2; o <= 2; ++o) {
          auto& dst = s[static_cast<std::size_t>(o + 2)];
          const int xx = x + (axis_i == 0 ? o : 0);
          const int yy = y + (axis_i == 1 ? o : 0);
          const int zz = z + (axis_i == 2 ? o : 0);
          for (std::size_t v = 0; v < nvs; ++v) {
            dst[v] = u.var(static_cast<int>(v)).at(zz, yy, xx);
          }
        }
        face_flux(axis, s[0], s[1], s[2], s[3], face_lo);
        face_flux(axis, s[1], s[2], s[3], s[4], face_hi);
        const double inv_h = 1.0 / h[static_cast<std::size_t>(axis_i)];
        for (std::size_t v = 0; v < nvs; ++v) {
          du[v] -= (face_hi[v] - face_lo[v]) * inv_h;
        }
      }
      for (std::size_t v = 0; v < nvs; ++v) {
        dudt.var(static_cast<int>(v)).at(z, y, x) = du[v];
      }
      // Per-cell CFL rate: sum over axes of wavespeed / cell size.
      for (std::size_t v = 0; v < nvs; ++v) {
        center[v] = u.var(static_cast<int>(v)).at(z, y, x);
      }
      const std::span<const double> c_s(center.data(), nvs);
      double rate = 0.0;
      for (int axis_i = 0; axis_i < 3; ++axis_i) {
        rate += law_->max_wavespeed(static_cast<Axis>(axis_i), c_s) /
                h[static_cast<std::size_t>(axis_i)];
      }
      cfl.at(z, y, x) = rate;
    }
  });
}

double Solver::reduce_max_rate(const Field3D& cfl) const {
  const GridDims dims = config_.dims;
  const auto rows = static_cast<std::size_t>(dims.nz) *
                    static_cast<std::size_t>(dims.ny);
  return parallel_reduce(
      ThreadPool::global(), 0, rows, 0.0,
      [&](std::size_t row) {
        const int z = static_cast<int>(row) / dims.ny;
        const int y = static_cast<int>(row) % dims.ny;
        double m = 0.0;
        for (int x = 0; x < dims.nx; ++x) {
          m = std::max(m, cfl.at(z, y, x));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
}

void Solver::integrate_substep(int substep) {
  const int nv = law_->num_vars();
  const GridDims dims = config_.dims;
  const auto rows = static_cast<std::size_t>(dims.nz) *
                    static_cast<std::size_t>(dims.ny);
  const double dt = dt_;

  // SSP-RK3 (Shu-Osher):  u1 = u0 + dt L(u0)
  //                       u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
  //                       u  = 1/3 u0 + 2/3 (u2 + dt L(u2))
  double a0 = 0.0;
  double a1 = 1.0;
  switch (substep) {
  case 0:
    a0 = 0.0;
    a1 = 1.0;
    break;
  case 1:
    a0 = 0.75;
    a1 = 0.25;
    break;
  case 2:
    a0 = 1.0 / 3.0;
    a1 = 2.0 / 3.0;
    break;
  default:
    DSEM_ENSURE(false, "substep must be 0, 1, or 2");
  }

  parallel_for(0, rows, [&](std::size_t row) {
    const int z = static_cast<int>(row) / dims.ny;
    const int y = static_cast<int>(row) % dims.ny;
    for (int v = 0; v < nv; ++v) {
      const Field3D& prev = u0_.var(v);
      const Field3D& ddt = dudt_.var(v);
      Field3D& cur = u_.var(v);
      for (int x = 0; x < dims.nx; ++x) {
        cur.at(z, y, x) = a0 * prev.at(z, y, x) +
                          a1 * (cur.at(z, y, x) + dt * ddt.at(z, y, x));
      }
    }
  });
}

void Solver::fill_axis_boundary(int axis) {
  const GridDims dims = config_.dims;
  const int nv = law_->num_vars();
  const BoundaryKind kind = config_.boundaries[static_cast<std::size_t>(axis)];
  const int n = axis == 0 ? dims.nx : (axis == 1 ? dims.ny : dims.nz);

  // When filling ghosts along `axis`, span the full halo extent of the
  // axes already processed (x before y before z) so corners are coherent.
  const int ex_lo = axis > 0 ? -kGhost : 0;
  const int ex_hi = axis > 0 ? dims.nx + kGhost : dims.nx;
  const int ey_lo = axis > 1 ? -kGhost : 0;
  const int ey_hi = axis > 1 ? dims.ny + kGhost : dims.ny;

  std::array<double, kMaxVars> cell{};
  const auto nvs = static_cast<std::size_t>(nv);

  const auto fill_cell = [&](int gz, int gy, int gx, int sz2, int sy2, int sx2,
                             bool reflect) {
    for (std::size_t v = 0; v < nvs; ++v) {
      cell[v] = u_.var(static_cast<int>(v)).at(sz2, sy2, sx2);
    }
    if (reflect) {
      law_->reflect(static_cast<Axis>(axis), std::span<double>(cell.data(), nvs));
    }
    for (std::size_t v = 0; v < nvs; ++v) {
      u_.var(static_cast<int>(v)).at(gz, gy, gx) = cell[v];
    }
  };

  const auto others_z = [&](int a_coord, int b, int c) {
    // Maps (axis coordinate, other coords) to (z, y, x).
    switch (axis) {
    case 0:
      return std::array<int, 3>{c, b, a_coord};
    case 1:
      return std::array<int, 3>{c, a_coord, b};
    default:
      return std::array<int, 3>{a_coord, c, b};
    }
  };

  // `b` iterates the first already-filled axis, `c` the second.
  const int b_lo = axis == 0 ? 0 : ex_lo;
  const int b_hi = axis == 0 ? dims.ny : ex_hi;
  const int c_lo = axis == 2 ? ey_lo : (axis == 1 ? 0 : 0);
  const int c_hi = axis == 2 ? ey_hi : (axis == 1 ? dims.nz : dims.nz);

  for (int c = c_lo; c < c_hi; ++c) {
    for (int b = b_lo; b < b_hi; ++b) {
      for (int g = 1; g <= kGhost; ++g) {
        int src_lo = 0;
        int src_hi = 0;
        bool reflect = false;
        switch (kind) {
        case BoundaryKind::kPeriodic:
          src_lo = n - g;
          src_hi = g - 1;
          break;
        case BoundaryKind::kOutflow:
          src_lo = 0;
          src_hi = n - 1;
          break;
        case BoundaryKind::kReflecting:
          src_lo = g - 1;
          src_hi = n - g;
          reflect = true;
          break;
        }
        const auto lo_dst = others_z(-g, b, c);
        const auto lo_src = others_z(src_lo, b, c);
        fill_cell(lo_dst[0], lo_dst[1], lo_dst[2], lo_src[0], lo_src[1],
                  lo_src[2], reflect);
        const auto hi_dst = others_z(n - 1 + g, b, c);
        const auto hi_src = others_z(src_hi, b, c);
        fill_cell(hi_dst[0], hi_dst[1], hi_dst[2], hi_src[0], hi_src[1],
                  hi_src[2], reflect);
      }
    }
  }
}

void Solver::apply_boundary() {
  for (int axis = 0; axis < 3; ++axis) {
    fill_axis_boundary(axis);
  }
}

StepStats Solver::step(synergy::Queue& queue) {
  DSEM_ENSURE(initialized_, "Solver::step before initialize");
  auto launches = substep_launches(config_.dims, law_->num_vars());
  launches[0].host_impl = [this] { compute_changes(u_, dudt_, cfl_); };
  launches[1].host_impl = [this] { max_rate_ = reduce_max_rate(cfl_); };
  launches[3].host_impl = [this] { apply_boundary(); };

  // Save the RK base state (only needed when the numerics actually run).
  if (queue.mode() == synergy::ExecMode::kValidate) {
    u0_ = u_;
  }

  for (int substep = 0; substep < 3; ++substep) {
    launches[2].host_impl = [this, substep] { integrate_substep(substep); };
    for (const synergy::KernelLaunch& launch : launches) {
      queue.submit(launch);
    }
  }

  StepStats stats;
  stats.dt = dt_;
  time_ += dt_;
  stats.time = time_;
  stats.max_rate = max_rate_;
  // adjustTimestepDelta: next step's dt from this step's reduced CFL.
  if (max_rate_ > 0.0) {
    dt_ = std::min(config_.cfl_number / max_rate_, config_.max_dt);
  }
  return stats;
}

RunStats Solver::run(synergy::Queue& queue, int steps) {
  DSEM_ENSURE(steps > 0, "run needs a positive step count");
  RunStats stats;
  for (int i = 0; i < steps; ++i) {
    const StepStats s = step(queue);
    ++stats.steps;
    stats.simulated_time = s.time;
  }
  return stats;
}

RunStats Solver::run_until(synergy::Queue& queue, double end_time,
                           int max_steps) {
  DSEM_ENSURE(queue.mode() == synergy::ExecMode::kValidate,
              "run_until needs Validate mode (real numerics drive time)");
  DSEM_ENSURE(end_time > time_, "end_time must lie in the future");
  RunStats stats;
  while (time_ < end_time && stats.steps < max_steps) {
    // Clip the final step onto end_time exactly.
    dt_ = std::min(dt_, end_time - time_);
    const StepStats s = step(queue);
    ++stats.steps;
    stats.simulated_time = s.time;
  }
  DSEM_ENSURE(time_ >= end_time, "run_until: max_steps hit before end_time");
  return stats;
}

} // namespace dsem::cronos
