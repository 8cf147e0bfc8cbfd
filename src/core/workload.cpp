#include "core/workload.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "cronos/kernels.hpp"
#include "cronos/solver.hpp"
#include "ligen/kernels.hpp"

namespace dsem::core {

CronosWorkload::CronosWorkload(cronos::GridDims dims, int steps, int num_vars)
    : dims_(dims), steps_(steps), num_vars_(num_vars) {
  DSEM_ENSURE(steps >= 1, "CronosWorkload needs at least one step");
  DSEM_ENSURE(num_vars >= 1 && num_vars <= cronos::kMaxVars,
              "unsupported variable count");
}

std::vector<double> CronosWorkload::domain_features() const {
  return {static_cast<double>(dims_.nx), static_cast<double>(dims_.ny),
          static_cast<double>(dims_.nz)};
}

std::vector<std::string> CronosWorkload::feature_names() const {
  return {"grid_x", "grid_y", "grid_z"};
}

void CronosWorkload::submit(synergy::Queue& queue) const {
  cronos::submit_step_kernels(queue, dims_, num_vars_, steps_);
}

sim::KernelProfile CronosWorkload::aggregate_profile() const {
  // Work-item-weighted per-item average over one substep's kernel launches
  // (every substep of every step submits the same four).
  sim::KernelProfile agg;
  agg.name = "cronos::aggregate";
  double items = 0.0;
  for (const auto& launch : cronos::substep_launches(dims_, num_vars_)) {
    const auto w = static_cast<double>(launch.work_items);
    agg.accumulate(launch.profile.scaled(w));
    items += w;
  }
  return agg.scaled(1.0 / items);
}

std::vector<KernelLaunch> CronosWorkload::kernel_launches() const {
  // Every step runs three RK substeps of the same four kernels.
  const double per_run = 3.0 * static_cast<double>(steps_);
  std::vector<KernelLaunch> out;
  for (auto& launch : cronos::substep_launches(dims_, num_vars_)) {
    out.push_back({std::move(launch.profile), launch.work_items, per_run});
  }
  return out;
}

LigenWorkload::LigenWorkload(int ligands, int atoms, int fragments,
                             ligen::DockingParams params,
                             std::size_t batch_size)
    : ligands_(ligands), atoms_(atoms), fragments_(fragments),
      params_(params), batch_size_(batch_size) {
  DSEM_ENSURE(ligands >= 1, "LigenWorkload needs at least one ligand");
  DSEM_ENSURE(atoms >= 2, "ligands need at least two atoms");
  DSEM_ENSURE(fragments >= 1, "ligands have at least one fragment");
  ligen::validate(params_);
  DSEM_ENSURE(batch_size >= 1, "batch size must be >= 1");
}

std::string LigenWorkload::name() const {
  // Paper convention: atoms x fragments x ligands.
  return std::to_string(atoms_) + "x" + std::to_string(fragments_) + "x" +
         std::to_string(ligands_);
}

std::vector<double> LigenWorkload::domain_features() const {
  return {static_cast<double>(ligands_), static_cast<double>(fragments_),
          static_cast<double>(atoms_)};
}

std::vector<std::string> LigenWorkload::feature_names() const {
  return {"ligands", "fragments", "atoms"};
}

void LigenWorkload::submit(synergy::Queue& queue) const {
  ligen::submit_screening_kernels(queue,
                                  static_cast<std::size_t>(ligands_), atoms_,
                                  fragments_, params_, batch_size_);
}

sim::KernelProfile LigenWorkload::aggregate_profile() const {
  sim::KernelProfile agg;
  agg.name = "ligen::aggregate";
  // Dock and score kernels both run once per ligand.
  agg.accumulate(ligen::dock_profile(atoms_, fragments_, params_));
  agg.accumulate(ligen::score_profile(atoms_, params_));
  return agg.scaled(0.5);
}

std::vector<KernelLaunch> LigenWorkload::kernel_launches() const {
  // Screening batches ligands (ligen::submit_screening_kernels): full
  // batches form one launch class per kernel, the remainder another.
  const auto ligands = static_cast<std::size_t>(ligands_);
  const std::size_t full = ligands / batch_size_;
  const std::size_t rem = ligands % batch_size_;
  const sim::KernelProfile dock =
      ligen::dock_profile(atoms_, fragments_, params_);
  const sim::KernelProfile score = ligen::score_profile(atoms_, params_);
  std::vector<KernelLaunch> out;
  if (full > 0) {
    out.push_back({dock, batch_size_, static_cast<double>(full)});
    out.push_back({score, batch_size_, static_cast<double>(full)});
  }
  if (rem > 0) {
    out.push_back({dock, rem, 1.0});
    out.push_back({score, rem, 1.0});
  }
  return out;
}

std::unique_ptr<Workload>
workload_from_features(const std::string& application,
                       std::span<const double> features) {
  const auto as_int = [&](std::size_t i) {
    DSEM_ENSURE(i < features.size() && std::isfinite(features[i]),
                "workload_from_features: bad feature vector for " +
                    application);
    const double rounded = std::round(features[i]);
    DSEM_ENSURE(rounded >= std::numeric_limits<int>::min() &&
                    rounded <= std::numeric_limits<int>::max(),
                "workload_from_features: feature out of int range for " +
                    application);
    return static_cast<int>(rounded);
  };
  if (application == "cronos") {
    DSEM_ENSURE(features.size() == 3,
                "workload_from_features: cronos expects {nx, ny, nz}");
    return std::make_unique<CronosWorkload>(
        cronos::GridDims{as_int(0), as_int(1), as_int(2)});
  }
  DSEM_ENSURE(application == "ligen",
              "workload_from_features: unknown application \"" + application +
                  "\"");
  DSEM_ENSURE(features.size() == 3,
              "workload_from_features: ligen expects {ligands, fragments, "
              "atoms}");
  return std::make_unique<LigenWorkload>(as_int(0), as_int(2), as_int(1));
}

} // namespace dsem::core
