#include "sim/device.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "sim/profile_cache.hpp"

namespace dsem::sim {

namespace {

double apply_noise(double value, double sigma, Rng& rng) noexcept {
  if (sigma <= 0.0) {
    return value;
  }
  // Clamp at 4 sigma so a tail draw can never produce a negative reading.
  const double n =
      std::clamp(rng.normal(0.0, sigma), -4.0 * sigma, 4.0 * sigma);
  return value * (1.0 + n);
}

} // namespace

LaunchCost measure_launch(const LaunchCost& cost, const NoiseConfig& noise,
                          Rng& rng) {
  LaunchCost out;
  out.time_s = apply_noise(cost.time_s, noise.time_sigma, rng);
  out.energy_j = apply_noise(cost.energy_j, noise.energy_sigma, rng);
  // Simulated seconds/joules, not wall time: deterministic per replica
  // seed, so the merged histograms are stable across DSEM_THREADS.
  if (metrics::enabled()) {
    metrics::counter("sim.launches");
    metrics::histogram("sim.launch_time_s", out.time_s);
    metrics::histogram("sim.launch_energy_j", out.energy_j);
  }
  return out;
}

Device::Device(DeviceSpec spec, NoiseConfig noise, std::uint64_t seed)
    : spec_(std::move(spec)), noise_(noise), seed_(seed), rng_(seed) {
  validate(spec_);
  DSEM_ENSURE(noise_.time_sigma >= 0.0 && noise_.energy_sigma >= 0.0,
              "noise sigmas must be non-negative");
  reset_frequency();
}

double Device::set_core_frequency(double mhz) {
  if (faults_.should_fail_set_frequency()) {
    throw TransientFault(FaultKind::kSetFrequency,
                         "set_core_frequency(" + std::to_string(mhz) +
                             ") rejected by " + spec_.name);
  }
  const double snapped = spec_.core_frequencies.snap(mhz);
  pinned_mhz_ = snapped;
  return snapped;
}

void Device::reset_frequency() {
  if (spec_.has_fixed_default()) {
    pinned_mhz_ = spec_.core_frequencies.snap(spec_.default_core_frequency_mhz);
  } else {
    pinned_mhz_.reset();
  }
}

double Device::current_frequency() const {
  if (pinned_mhz_) {
    return *pinned_mhz_;
  }
  return spec_.core_frequencies.snap(spec_.auto_frequency_mhz);
}

double Device::default_frequency() const {
  if (spec_.has_fixed_default()) {
    return spec_.core_frequencies.snap(spec_.default_core_frequency_mhz);
  }
  return spec_.core_frequencies.snap(spec_.auto_frequency_mhz);
}

LaunchResult Device::launch(const KernelProfile& kernel,
                            std::size_t work_items, ProfileCache* cache) {
  if (faults_.should_fail_launch()) {
    throw TransientFault(FaultKind::kKernelLaunch,
                         "kernel launch aborted: " + kernel.name + " on " +
                             spec_.name);
  }
  const double f = current_frequency();
  const LaunchCost cost = cache != nullptr
                              ? cache->lookup(spec_, kernel, work_items, f)
                              : launch_cost(spec_, kernel, work_items, f);

  const LaunchCost reading = measure_launch(cost, noise_, rng_);

  LaunchResult out;
  out.frequency_mhz = f;
  out.time_s = reading.time_s;
  out.energy_j = reading.energy_j;

  // Counters accumulate the true reading even when the *read* below
  // fails: the device consumed that energy whether or not we saw it.
  energy_j_ += out.energy_j;
  busy_s_ += out.time_s;
  ++launches_;

  switch (faults_.energy_read_fault()) {
  case FaultInjector::EnergyFault::kNone:
    break;
  case FaultInjector::EnergyFault::kDropped:
    throw TransientFault(FaultKind::kEnergyRead,
                         "energy counter read failed on " + spec_.name);
  case FaultInjector::EnergyFault::kGarbage:
    out.energy_j = faults_.garbage_energy(out.energy_j);
    break;
  }
  out.avg_power_w = out.time_s > 0.0 ? out.energy_j / out.time_s : 0.0;
  return out;
}

ExecutionBreakdown Device::analyze(const KernelProfile& kernel,
                                   std::size_t work_items) const {
  return execute(spec_, kernel, work_items, current_frequency());
}

void Device::reset_counters() noexcept {
  energy_j_ = 0.0;
  busy_s_ = 0.0;
  launches_ = 0;
}

} // namespace dsem::sim
