// Simulated GPU device: clocking state, kernel launches, energy counters.
//
// This is the stand-in for the physical V100/MI100 of the paper. It is the
// *only* source of time and energy numbers in the system; everything above
// (SYnergy layer, applications, models) treats it as opaque hardware.
// Measurements carry seeded multiplicative Gaussian noise so the modelling
// layer faces realistic, repeatable measurement error.
//
// Not thread-safe by design: like real hardware counters, a device is
// driven from one submission context (a synergy::Queue serializes access).
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "sim/device_spec.hpp"
#include "sim/execution_model.hpp"
#include "sim/fault.hpp"
#include "sim/power_model.hpp"

namespace dsem::sim {

class ProfileCache;

struct NoiseConfig {
  double time_sigma = 0.015;   ///< relative std-dev of time measurements
  double energy_sigma = 0.015; ///< relative std-dev of energy measurements

  static NoiseConfig none() noexcept { return {0.0, 0.0}; }
};

/// The measurement-noise law of every simulated launch: scales `cost` by
/// multiplicative Gaussian noise, clamped at 4 sigma and drawn from `rng`
/// (time first, then energy; a zero sigma draws nothing), and records the
/// reading in the sim.* instruments. Device::launch measures through it,
/// and so does any caller that replays memoised costs under a replica's
/// noise stream, so the two readings are bit-identical.
LaunchCost measure_launch(const LaunchCost& cost, const NoiseConfig& noise,
                          Rng& rng);

struct LaunchResult {
  double time_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double frequency_mhz = 0.0; ///< core clock the launch actually ran at
};

class Device {
public:
  explicit Device(DeviceSpec spec, NoiseConfig noise = {},
                  std::uint64_t seed = 0x5eed0001);

  const DeviceSpec& spec() const noexcept { return spec_; }
  NoiseConfig noise() const noexcept { return noise_; }

  /// Seed the device was constructed (or last reseeded) with.
  std::uint64_t seed() const noexcept { return seed_; }

  /// Fresh device with the same spec, noise model, and fault config but
  /// its own measurement-noise and fault streams: the building block of
  /// parallel sweeps, where every grid point measures on its own
  /// deterministic replica instead of racing on one device's RNG.
  Device replica(std::uint64_t seed) const {
    Device d(spec_, noise_, seed);
    d.set_fault_config(faults_.config());
    return d;
  }

  // --- fault injection ----------------------------------------------------

  /// Enables deterministic fault injection: the injector stream is
  /// derived from the device seed, so the schedule survives replica() and
  /// reseed(). All-zero rates (the default) are bit-identical to no
  /// injection at all.
  void set_fault_config(const FaultConfig& config) noexcept {
    faults_ = FaultInjector(config, derive_seed(seed_, kFaultStreamSalt));
  }

  const FaultConfig& fault_config() const noexcept {
    return faults_.config();
  }

  /// Transient faults fired on this device so far.
  std::uint64_t faults_injected() const noexcept {
    return faults_.faults_injected();
  }

  // --- clocking -----------------------------------------------------------

  /// Pins the core clock to the nearest supported frequency; returns it.
  double set_core_frequency(double mhz);

  /// Resets to the device's default behaviour: the default application
  /// clock on NVIDIA, the auto governor on AMD.
  void reset_frequency();

  bool is_auto() const noexcept { return !pinned_mhz_.has_value(); }

  /// The core clock the next launch will run at.
  double current_frequency() const;

  /// Baseline clock used for speedup/normalized-energy: the fixed default
  /// (NVIDIA) or the governor's pick (AMD).
  double default_frequency() const;

  // --- execution ----------------------------------------------------------

  /// Simulates one kernel launch, advances the counters, and returns the
  /// (noisy) measured time and energy of this launch. The noise-free cost
  /// is launch_cost(), or its memoized copy in `cache`; results are
  /// bit-identical either way.
  ///
  /// With fault injection enabled, may throw TransientFault (aborted
  /// launch, dropped energy read) or return a garbage (negative) energy
  /// reading; the internal counters always accumulate the true value —
  /// a bad read corrupts the observation, not the hardware state.
  LaunchResult launch(const KernelProfile& kernel, std::size_t work_items,
                      ProfileCache* cache = nullptr);

  /// Noise-free timing breakdown at the current clock (for tests/analysis).
  ExecutionBreakdown analyze(const KernelProfile& kernel,
                             std::size_t work_items) const;

  // --- counters (what NVML/ROCm-SMI-style energy readouts expose) ---------

  double energy_joules() const noexcept { return energy_j_; }
  double busy_seconds() const noexcept { return busy_s_; }
  std::uint64_t launch_count() const noexcept { return launches_; }
  void reset_counters() noexcept;

  /// Reseed the measurement-noise and fault streams (e.g., per experiment
  /// repetition).
  void reseed(std::uint64_t seed) noexcept {
    seed_ = seed;
    rng_.reseed(seed);
    faults_.reseed(derive_seed(seed, kFaultStreamSalt));
  }

private:
  DeviceSpec spec_;
  NoiseConfig noise_;
  std::uint64_t seed_ = 0;
  Rng rng_;
  FaultInjector faults_;             ///< inert unless set_fault_config()
  std::optional<double> pinned_mhz_; ///< nullopt = auto/governed
  double energy_j_ = 0.0;
  double busy_s_ = 0.0;
  std::uint64_t launches_ = 0;
};

} // namespace dsem::sim
