// CMOS DVFS power/energy model.
//
// Power splits into four structurally different terms:
//   static     — leakage/board, independent of f (cost of *time*)
//   clock tree — ~ f * V(f)^2, paid whenever the device is clocked, even
//                when pipelines idle (why up-clocking an overhead-bound
//                kernel still wastes energy)
//   compute    — ~ f * V(f)^2 gated by compute-pipe utilization; per-op
//                energy therefore scales with V(f)^2 only
//   memory     — gated by DRAM utilization, insensitive to the core clock
// The piecewise V(f) curve makes the top of the frequency range markedly
// energy-inefficient, reproducing the paper's super-linear energy cost of
// boosting.
#pragma once

#include "sim/device_spec.hpp"
#include "sim/execution_model.hpp"

namespace dsem::sim {

/// Operating voltage at `core_mhz` given the curve and the device maximum
/// frequency. Flat at v_min below the knee, power-law rise to v_max at
/// f_max, clamped outside the range.
double voltage(const VoltageCurve& curve, double core_mhz, double f_max_mhz);

struct EnergyBreakdown {
  double static_j = 0.0;
  double clock_j = 0.0;
  double compute_j = 0.0;
  double mem_j = 0.0;
  double total_j = 0.0;
  double avg_power_w = 0.0; ///< total_j / wall time
};

/// Energy of one kernel launch whose timing is `exec`, at `core_mhz`.
EnergyBreakdown energy(const DeviceSpec& spec, const ExecutionBreakdown& exec,
                       double core_mhz);

/// Instantaneous power draw while the device idles (clocked, no work).
double idle_power_w(const DeviceSpec& spec, double core_mhz);

/// Noise-free cost of one launch: execution-model total time and
/// power-model total energy.
struct LaunchCost {
  double time_s = 0.0;
  double energy_j = 0.0;
};

/// The cost of launching (kernel, work_items) on `spec` at `core_mhz`:
/// the one derivation behind Device::launch and ProfileCache::lookup.
LaunchCost launch_cost(const DeviceSpec& spec, const KernelProfile& kernel,
                       std::size_t work_items, double core_mhz);

} // namespace dsem::sim
