#include "core/kernel_features.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "sim/execution_model.hpp"

namespace dsem::core {

namespace {

/// Canonical total order over launch classes: accumulation below walks the
/// sorted copy, so the block is bit-identical under any permutation of the
/// input list (FP sums are order-sensitive; the order must not leak in).
bool launch_less(const KernelLaunch& a, const KernelLaunch& b) {
  const auto key = [](const KernelLaunch& l) {
    return std::tuple(l.profile.name, l.work_items, l.launches,
                      l.profile.int_add, l.profile.int_mul, l.profile.int_div,
                      l.profile.int_bw, l.profile.float_add,
                      l.profile.float_mul, l.profile.float_div,
                      l.profile.special_fn, l.profile.global_bytes,
                      l.profile.local_bytes, l.profile.intra_item_parallelism);
  };
  return key(a) < key(b);
}

} // namespace

std::vector<std::string> hybrid_feature_names() {
  return {
      // Static: launch geometry and instruction/memory mix.
      "hy_log_work_items",   ///< log1p(total work items per run)
      "hy_log_launches",     ///< log1p(kernel launches per run)
      "hy_flop_fraction",    ///< flops / total arithmetic ops (work-weighted)
      "hy_arith_intensity",  ///< log1p(flops per global byte), damped
      "hy_mem_per_op",       ///< log1p(global bytes per arithmetic op)
      "hy_local_fraction",   ///< local / (global + local) traffic
      // Dynamic: the default-clock profile run (noise-free roofline).
      "hy_compute_util",     ///< time-share-weighted compute utilization
      "hy_mem_util",         ///< time-share-weighted DRAM utilization
      "hy_membound_share",   ///< time share of memory-bound kernels
      "hy_overhead_share",   ///< launch-overhead share of total time
      "hy_occupancy",        ///< time-share-weighted achieved occupancy
      "hy_top_kernel_share", ///< largest single launch class's time share
      "hy_log_ref_time",     ///< log(default-clock run time)
  };
}

std::vector<double> hybrid_feature_block(std::span<const KernelLaunch> launches,
                                         const sim::DeviceSpec& spec,
                                         double default_freq_mhz) {
  DSEM_ENSURE(!launches.empty(),
              "hybrid_feature_block: empty kernel launch list");
  DSEM_ENSURE(default_freq_mhz > 0.0,
              "hybrid_feature_block: non-positive default clock");

  std::vector<KernelLaunch> sorted(launches.begin(), launches.end());
  std::sort(sorted.begin(), sorted.end(), launch_less);

  // Static accumulation: per-run totals over all launch classes.
  double work_items = 0.0;
  double launch_count = 0.0;
  double ops = 0.0;
  double flops = 0.0;
  double global_bytes = 0.0;
  double local_bytes = 0.0;
  // Dynamic accumulation: one noise-free default-clock execution per class.
  double total_s = 0.0;
  double launch_s = 0.0;
  double compute_util_s = 0.0;
  double mem_util_s = 0.0;
  double membound_s = 0.0;
  double occupancy_s = 0.0;
  double top_class_s = 0.0;
  const auto lanes = static_cast<double>(spec.total_lanes());

  for (const KernelLaunch& l : sorted) {
    DSEM_ENSURE(l.work_items > 0, "hybrid_feature_block: launch class \"" +
                                      l.profile.name + "\" has no work items");
    DSEM_ENSURE(l.launches > 0.0 && std::isfinite(l.launches),
                "hybrid_feature_block: bad launch count for \"" +
                    l.profile.name + "\"");
    sim::validate(l.profile);
    const double items = static_cast<double>(l.work_items) * l.launches;
    work_items += items;
    launch_count += l.launches;
    ops += l.profile.total_ops() * items;
    flops += l.profile.flops() * items;
    global_bytes += l.profile.global_bytes * items;
    local_bytes += l.profile.local_bytes * items;

    const sim::ExecutionBreakdown bd =
        sim::execute(spec, l.profile, l.work_items, default_freq_mhz);
    const double class_s = bd.total_s * l.launches;
    total_s += class_s;
    launch_s += bd.launch_s * l.launches;
    compute_util_s += bd.compute_utilization() * class_s;
    mem_util_s += bd.memory_utilization() * class_s;
    membound_s += bd.mem_bw_s >= bd.compute_tp_s ? class_s : 0.0;
    occupancy_s +=
        std::min(1.0, static_cast<double>(l.work_items) *
                          l.profile.intra_item_parallelism / lanes) *
        class_s;
    top_class_s = std::max(top_class_s, class_s);
  }
  DSEM_ENSURE(total_s > 0.0, "execution model produced a zero-time run");

  // Ratio denominators are clamped away from zero so a pure-compute or
  // zero-op profile still yields finite features.
  const double safe_ops = std::max(ops, 1.0);
  return {
      std::log1p(work_items),
      std::log1p(launch_count),
      flops / safe_ops,
      std::log1p(flops / (1.0 + global_bytes)),
      std::log1p(global_bytes / safe_ops),
      local_bytes / std::max(global_bytes + local_bytes, 1.0),
      compute_util_s / total_s,
      mem_util_s / total_s,
      membound_s / total_s,
      launch_s / total_s,
      occupancy_s / total_s,
      top_class_s / total_s,
      std::log(total_s),
  };
}

std::vector<double> fused_feature_vector(const Workload& workload,
                                         const sim::DeviceSpec& spec,
                                         double default_freq_mhz) {
  std::vector<double> out = workload.domain_features();
  const std::vector<double> block =
      hybrid_feature_block(workload.kernel_launches(), spec, default_freq_mhz);
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

std::vector<std::string> fused_feature_names(const Workload& workload) {
  std::vector<std::string> out = workload.feature_names();
  const std::vector<std::string> block = hybrid_feature_names();
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

Dataset fuse_dataset(const Dataset& dataset,
                     std::span<const std::unique_ptr<Workload>> workloads,
                     const sim::DeviceSpec& spec) {
  DSEM_ENSURE(dataset.rows() > 0, "fuse_dataset: empty dataset");
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "fuse_dataset: workload list does not match dataset groups");
  // One fused prefix per group that has rows.
  std::vector<std::vector<double>> fused(dataset.num_groups());
  for (const int group : dataset.groups) {
    const auto g = static_cast<std::size_t>(group);
    if (fused[g].empty()) {
      fused[g] = fused_feature_vector(*workloads[g], spec,
                                      dataset.default_freq_mhz[g]);
    }
  }
  const std::size_t width =
      fused[static_cast<std::size_t>(dataset.groups.front())].size();

  Dataset out = dataset;
  out.x = ml::Matrix(dataset.rows(), width + 1);
  const std::size_t freq_col = dataset.x.cols() - 1;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    const std::vector<double>& prefix =
        fused[static_cast<std::size_t>(dataset.groups[r])];
    DSEM_ENSURE(prefix.size() == width,
                "fuse_dataset: inconsistent fused feature widths");
    auto row = out.x.row(r);
    std::copy(prefix.begin(), prefix.end(), row.begin());
    row.back() = dataset.x(r, freq_col);
  }
  return out;
}

} // namespace dsem::core
