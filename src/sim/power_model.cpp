#include "sim/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dsem::sim {

double voltage(const VoltageCurve& curve, double core_mhz, double f_max_mhz) {
  DSEM_ENSURE(f_max_mhz > curve.knee_mhz,
              "voltage curve knee must lie below f_max");
  if (core_mhz <= curve.knee_mhz) {
    return curve.v_min;
  }
  const double x =
      std::min(1.0, (core_mhz - curve.knee_mhz) / (f_max_mhz - curve.knee_mhz));
  return curve.v_min + (curve.v_max - curve.v_min) * std::pow(x, curve.exponent);
}

namespace {

/// f*V^2 scaling factor relative to (f_max, v_max).
double dvfs_factor(const DeviceSpec& spec, double core_mhz) {
  const double f_max = spec.core_frequencies.max();
  const double v = voltage(spec.power.voltage, core_mhz, f_max);
  const double v_max = spec.power.voltage.v_max;
  return (core_mhz / f_max) * (v / v_max) * (v / v_max);
}

} // namespace

EnergyBreakdown energy(const DeviceSpec& spec, const ExecutionBreakdown& exec,
                       double core_mhz) {
  DSEM_ENSURE(core_mhz > 0.0, "core frequency must be positive");
  const double dvfs = dvfs_factor(spec, core_mhz);

  EnergyBreakdown e;
  e.static_j = spec.power.static_w * exec.total_s;
  // Clock-tree power is partially gated when the pipelines idle (modern
  // GPUs clock-gate inactive partitions); 40% is the ungated floor.
  const double activity =
      std::max(exec.compute_utilization(), exec.memory_utilization());
  const double clock_gate = 0.4 + 0.6 * activity;
  e.clock_j = spec.power.clock_max_w * dvfs * clock_gate * exec.total_s;
  // Gating by throughput time (not wall time) makes per-op energy ~ V^2:
  // compute_j = P_max * dvfs * W*cpi/(lanes*f) ∝ V(f)^2 per unit of work.
  e.compute_j = spec.power.compute_max_w * dvfs * exec.compute_tp_s;
  e.mem_j = spec.power.mem_max_w * exec.mem_bw_s;
  e.total_j = e.static_j + e.clock_j + e.compute_j + e.mem_j;
  e.avg_power_w = exec.total_s > 0.0 ? e.total_j / exec.total_s : 0.0;
  return e;
}

double idle_power_w(const DeviceSpec& spec, double core_mhz) {
  return spec.power.static_w + spec.power.clock_max_w * dvfs_factor(spec, core_mhz);
}

LaunchCost launch_cost(const DeviceSpec& spec, const KernelProfile& kernel,
                       std::size_t work_items, double core_mhz) {
  const ExecutionBreakdown exec = execute(spec, kernel, work_items, core_mhz);
  return {exec.total_s, energy(spec, exec, core_mhz).total_j};
}

} // namespace dsem::sim
