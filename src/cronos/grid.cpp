#include "cronos/grid.hpp"

#include <cmath>

namespace dsem::cronos {

std::string GridDims::to_string() const {
  return std::to_string(nx) + "x" + std::to_string(ny) + "x" +
         std::to_string(nz);
}

Field3D::Field3D(GridDims dims, double fill) : dims_(dims) {
  DSEM_ENSURE(dims.nx >= 1 && dims.ny >= 1 && dims.nz >= 1,
              "grid dimensions must be >= 1");
  const auto sx = static_cast<std::size_t>(dims.nx + 2 * kGhost);
  const auto sy = static_cast<std::size_t>(dims.ny + 2 * kGhost);
  const auto sz = static_cast<std::size_t>(dims.nz + 2 * kGhost);
  data_.assign(sx * sy * sz, fill);
}

void Field3D::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Field3D::interior_sum() const {
  double acc = 0.0;
  double comp = 0.0;
  for (int z = 0; z < dims_.nz; ++z) {
    for (int y = 0; y < dims_.ny; ++y) {
      for (int x = 0; x < dims_.nx; ++x) {
        const double v = at(z, y, x) - comp;
        const double t = acc + v;
        comp = (t - acc) - v;
        acc = t;
      }
    }
  }
  return acc;
}

double Field3D::interior_max_abs() const {
  double m = 0.0;
  for (int z = 0; z < dims_.nz; ++z) {
    for (int y = 0; y < dims_.ny; ++y) {
      for (int x = 0; x < dims_.nx; ++x) {
        m = std::max(m, std::abs(at(z, y, x)));
      }
    }
  }
  return m;
}

State::State(GridDims dims, int num_vars) : dims_(dims) {
  DSEM_ENSURE(num_vars >= 1, "State needs at least one variable");
  fields_.reserve(static_cast<std::size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) {
    fields_.emplace_back(dims);
  }
}

// The width checks below cannot fire: the solver's buffers match its state.
void State::cell(int z, int y, int x, std::span<double> out) const {
  DSEM_ASSERT(out.size() == fields_.size(), "cell: span width mismatch");
  for (std::size_t v = 0; v < fields_.size(); ++v) {
    out[v] = fields_[v].at(z, y, x);
  }
}

void State::set_cell(int z, int y, int x, std::span<const double> values) {
  DSEM_ASSERT(values.size() == fields_.size(), "set_cell: width mismatch");
  for (std::size_t v = 0; v < fields_.size(); ++v) {
    fields_[v].at(z, y, x) = values[v];
  }
}

} // namespace dsem::cronos
