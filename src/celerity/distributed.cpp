#include "celerity/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "cronos/kernels.hpp"
#include "synergy/queue.hpp"

namespace dsem::celerity {

Partition partition_z(int nz, int ranks) {
  DSEM_ENSURE(nz >= 1, "nz must be positive");
  DSEM_ENSURE(ranks >= 1, "ranks must be positive");
  DSEM_ENSURE(ranks <= nz, "more ranks than Z planes");
  Partition part;
  part.z_cells.resize(static_cast<std::size_t>(ranks));
  const int base = nz / ranks;
  const int extra = nz % ranks;
  for (int r = 0; r < ranks; ++r) {
    part.z_cells[static_cast<std::size_t>(r)] = base + (r < extra ? 1 : 0);
  }
  return part;
}

double halo_bytes_per_exchange(const cronos::GridDims& global, int num_vars,
                               bool has_lower_neighbor,
                               bool has_upper_neighbor) {
  const double plane = static_cast<double>(global.nx) *
                       static_cast<double>(global.ny) * 8.0 *
                       static_cast<double>(num_vars);
  const double per_direction = 2.0 * plane; // two-cell-deep halo
  double bytes = 0.0;
  if (has_lower_neighbor) {
    bytes += per_direction;
  }
  if (has_upper_neighbor) {
    bytes += per_direction;
  }
  return bytes;
}

DistributedRunStats run_distributed_cronos(Cluster& cluster,
                                           const cronos::GridDims& global,
                                           int num_vars, int steps) {
  DSEM_ENSURE(steps >= 1, "steps must be positive");
  const int ranks = cluster.size();
  const Partition part = partition_z(global.nz, ranks);
  const auto& net = cluster.config().network;

  // Per-rank queues live across the whole run (per-kernel records drive
  // the makespan computation per substep).
  std::vector<synergy::Queue> queues;
  queues.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    queues.emplace_back(cluster.device(r), synergy::ExecMode::kSimOnly);
  }

  DistributedRunStats stats;
  stats.steps = steps;
  const double baseline_energy = cluster.total_device_energy_j();

  for (int step = 0; step < steps; ++step) {
    for (int substep = 0; substep < 3; ++substep) {
      // Compute phase: every rank runs one substep on its slab.
      double slowest = 0.0;
      for (int r = 0; r < ranks; ++r) {
        const cronos::GridDims local{global.nx, global.ny,
                                     part.z_cells[static_cast<std::size_t>(r)]};
        const std::size_t before = queues[static_cast<std::size_t>(r)]
                                       .records()
                                       .size();
        auto& queue = queues[static_cast<std::size_t>(r)];
        for (const auto& launch : cronos::substep_launches(local, num_vars)) {
          queue.submit(launch);
        }
        double rank_time = 0.0;
        for (std::size_t i = before; i < queue.records().size(); ++i) {
          rank_time += queue.records()[i].time_s;
        }
        slowest = std::max(slowest, rank_time);
      }
      stats.compute_time_s += slowest;

      // Halo exchange: neighbours swap 2-deep Z-faces; exchanges proceed
      // in parallel across disjoint links, so the phase costs one
      // bidirectional exchange (interior ranks' worst case).
      if (ranks > 1) {
        const double interior_bytes =
            halo_bytes_per_exchange(global, num_vars, true, true);
        const double exchange_s = transfer_time_s(net, interior_bytes);
        stats.comm_time_s += exchange_s;
        stats.network_energy_j +=
            exchange_s * net.nic_power_w * static_cast<double>(ranks);
      }
    }
    // The CFL all-reduce per step: one small message per rank (tree
    // reduction folded into a single latency-dominated phase).
    if (ranks > 1) {
      const double reduce_s = transfer_time_s(net, 8.0) *
                              std::max(1.0, std::log2(ranks));
      stats.comm_time_s += reduce_s;
      stats.network_energy_j +=
          reduce_s * net.nic_power_w * static_cast<double>(ranks);
    }
  }

  stats.makespan_s = stats.compute_time_s + stats.comm_time_s;
  stats.device_energy_j = cluster.total_device_energy_j() - baseline_energy;
  return stats;
}

} // namespace dsem::celerity
