// 3-D structured grid storage with ghost (halo) cells.
//
// Cronos is a finite-volume code: every interior cell needs access to a
// 2-cell neighbourhood in each direction (the paper's 13-point stencil),
// provided here as a fixed 2-deep halo. Indexing follows the paper's
// grid[Z][Y][X] convention; X is the fastest-varying (contiguous) axis.
#pragma once

#include <compare>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dsem::cronos {

inline constexpr int kGhost = 2; ///< halo depth required by the stencil

struct GridDims {
  int nx = 1;
  int ny = 1;
  int nz = 1;

  std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  std::string to_string() const;
  bool operator==(const GridDims&) const = default;
  auto operator<=>(const GridDims&) const = default;
};

/// One scalar field over the grid including halos.
class Field3D {
public:
  Field3D() = default;
  explicit Field3D(GridDims dims, double fill = 0.0);

  const GridDims& dims() const noexcept { return dims_; }

  /// Interior indices run [0, n); halos extend [-kGhost, n + kGhost).
  double& at(int z, int y, int x) noexcept {
    return data_[index(z, y, x)];
  }
  double at(int z, int y, int x) const noexcept {
    return data_[index(z, y, x)];
  }

  std::span<double> raw() noexcept { return data_; }
  std::span<const double> raw() const noexcept { return data_; }

  void fill(double value);

  /// Sum over interior cells only (conservation checks).
  double interior_sum() const;

  /// Max |value| over interior cells.
  double interior_max_abs() const;

private:
  std::size_t index(int z, int y, int x) const noexcept {
    // Cannot fire from the solver: it stays within kGhost of the interior.
    DSEM_ASSERT(x >= -kGhost && x < dims_.nx + kGhost, "x out of halo range");
    DSEM_ASSERT(y >= -kGhost && y < dims_.ny + kGhost, "y out of halo range");
    DSEM_ASSERT(z >= -kGhost && z < dims_.nz + kGhost, "z out of halo range");
    const auto sx = static_cast<std::size_t>(dims_.nx + 2 * kGhost);
    const auto sy = static_cast<std::size_t>(dims_.ny + 2 * kGhost);
    return (static_cast<std::size_t>(z + kGhost) * sy +
            static_cast<std::size_t>(y + kGhost)) *
               sx +
           static_cast<std::size_t>(x + kGhost);
  }

  GridDims dims_;
  std::vector<double> data_;
};

/// A set of conserved-variable fields over one grid.
class State {
public:
  State() = default;
  State(GridDims dims, int num_vars);

  const GridDims& dims() const noexcept { return dims_; }
  int num_vars() const noexcept { return static_cast<int>(fields_.size()); }

  Field3D& var(int v) { return fields_[static_cast<std::size_t>(v)]; }
  const Field3D& var(int v) const {
    return fields_[static_cast<std::size_t>(v)];
  }

  /// Gathers all variables of one cell into `out` (size num_vars).
  void cell(int z, int y, int x, std::span<double> out) const;
  /// Scatters `values` into all variables of one cell.
  void set_cell(int z, int y, int x, std::span<const double> values);

private:
  GridDims dims_;
  std::vector<Field3D> fields_;
};

} // namespace dsem::cronos
