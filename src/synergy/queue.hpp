// Kernel submission queue with per-kernel energy profiling.
//
// Applications describe each kernel launch as a KernelLaunch: the kernel's
// static profile (Table 1 features), the work-item count, and an optional
// host implementation that performs the real numerics. The queue always
// advances the simulated device's time/energy; in Validate mode it also
// runs the host implementation so correctness tests exercise the same code
// path the energy experiments measure (DESIGN.md decision 1).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "synergy/device.hpp"

namespace dsem::synergy {

enum class ExecMode {
  kSimOnly,  ///< advance simulated counters only (fast frequency sweeps)
  kValidate, ///< additionally run the host implementation (real numerics)
};

struct KernelLaunch {
  sim::KernelProfile profile;
  std::size_t work_items = 0;
  /// Host-side implementation of the kernel; may be empty in sweeps.
  std::function<void()> host_impl;
};

struct LaunchRecord {
  std::string kernel_name;
  std::size_t work_items = 0;
  double time_s = 0.0;
  double energy_j = 0.0;
  double frequency_mhz = 0.0;
};

class Queue {
public:
  explicit Queue(Device& device, ExecMode mode = ExecMode::kSimOnly);

  Device& device() noexcept { return *device_; }
  ExecMode mode() const noexcept { return mode_; }

  /// Pin the device clock for subsequent submissions.
  void set_target_frequency(double mhz) { device_->set_frequency(mhz); }
  void use_default_frequency() { device_->reset_frequency(); }

  /// Per-kernel DVFS (the paper's §7 future work, via SYnergy's per-kernel
  /// frequency support): before each submission, the queue retargets the
  /// clock to the plan entry matching the kernel's name; kernels not in
  /// the plan run at `fallback_mhz` (0 = device default). The simulated
  /// device charges a switch penalty whenever the clock actually changes.
  void set_kernel_frequency_plan(std::map<std::string, double> plan,
                                 double fallback_mhz = 0.0);
  void clear_kernel_frequency_plan();
  bool has_kernel_frequency_plan() const noexcept { return !plan_.empty(); }

  /// Memoize noise-free launch costs in `cache` (nullptr disables);
  /// records are bit-identical either way.
  void set_profile_cache(sim::ProfileCache* cache) noexcept {
    profile_cache_ = cache;
  }

  /// Simulate (and in Validate mode execute) one kernel launch. Returns a
  /// copy of the record (the internal log may reallocate on later submits).
  LaunchRecord submit(const KernelLaunch& launch);

  const std::vector<LaunchRecord>& records() const noexcept {
    return records_;
  }

  /// Sum of recorded kernel times / energies since the last reset.
  double total_time_s() const noexcept { return total_time_s_; }
  double total_energy_j() const noexcept { return total_energy_j_; }

  /// Aggregate per-kernel-name energy/time (profiling report).
  struct KernelSummary {
    std::string name;
    std::size_t launches = 0;
    double time_s = 0.0;
    double energy_j = 0.0;
  };
  std::vector<KernelSummary> kernel_summaries() const;

  void reset();

private:
  Device* device_; // non-owning; device outlives the queue
  ExecMode mode_;
  std::vector<LaunchRecord> records_;
  double total_time_s_ = 0.0;
  double total_energy_j_ = 0.0;
  std::map<std::string, double> plan_; ///< per-kernel target frequencies
  double plan_fallback_mhz_ = 0.0;
  sim::ProfileCache* profile_cache_ = nullptr; // non-owning

  double last_freq_mhz_ = 0.0; ///< switch-penalty tracking (queue-local)
};

} // namespace dsem::synergy
