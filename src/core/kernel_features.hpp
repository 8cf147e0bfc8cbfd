// Fused static+dynamic feature extraction for the hybrid model family
// (DSO-style, arXiv 2407.13096; DESIGN.md §7.13).
//
// The static half comes from the per-kernel launch list a workload
// declares (Workload::kernel_launches()): instruction mix, memory mix,
// arithmetic intensity, and launch geometry — what Fan et al.'s static
// analysis sees. The dynamic half is what one profiled run at the default
// clock would report: per-kernel compute/memory utilization, achieved
// occupancy, memory-bound time share, launch-overhead share, and the
// run's reference time, all derived from the noise-free roofline
// execution model (sim::execute) so they are available — and bit-stable —
// at both training and serving time.
//
// Contract: hybrid_feature_block is a pure function of (launches, spec,
// default_freq_mhz) and is bit-identical under any permutation of the
// launch list (it accumulates over a canonically sorted copy). Every
// feature is finite for any launch list that passes validation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/workload.hpp"
#include "sim/device_spec.hpp"

namespace dsem::core {

/// Names of the fused static+dynamic block, in emission order.
std::vector<std::string> hybrid_feature_names();

/// The fused feature block for one run described by `launches`, profiled
/// (noise-free) on `spec` at `default_freq_mhz`. Throws contract_error for
/// an empty launch list, non-positive work-item counts or launch counts,
/// or a non-positive default clock.
std::vector<double> hybrid_feature_block(std::span<const KernelLaunch> launches,
                                         const sim::DeviceSpec& spec,
                                         double default_freq_mhz);

/// Full fused vector for one workload: [domain features..., hybrid block].
/// This is the per-input prefix of a hybrid training/query row (the row
/// appends the frequency).
std::vector<double> fused_feature_vector(const Workload& workload,
                                         const sim::DeviceSpec& spec,
                                         double default_freq_mhz);

/// Names matching fused_feature_vector().
std::vector<std::string> fused_feature_names(const Workload& workload);

/// The hybrid family's rows: `dataset` with each row's domain prefix
/// replaced by its group's fused_feature_vector on `spec` at that group's
/// default clock. Frequency column, targets, row order, and group metadata
/// are unchanged. `workloads` must be the list (same order) build_dataset
/// consumed.
Dataset fuse_dataset(const Dataset& dataset,
                     std::span<const std::unique_ptr<Workload>> workloads,
                     const sim::DeviceSpec& spec);

} // namespace dsem::core
