// Portable device handle (the SYnergy API role of the paper).
//
// One vendor-neutral interface for frequency control and energy readout
// over a simulated device. Real DVFS is only reachable through per-vendor
// libraries (NVML, ROCm SMI, Level Zero); over the simulator they differ
// only in data, so each is one VendorApi entry picked from the spec's
// vendor:
//  - the API name;
//  - the resolution of its energy counter: millijoules for NVML
//    (nvmlDeviceGetTotalEnergyConsumption), 15.3 uJ for the ROCm SMI
//    accumulator, microjoules for Level Zero (zes_power_energy_counter_t).
// Clocking semantics come from the spec itself: a fixed default
// application clock (NVML, Level Zero) or the "auto" governor (ROCm SMI),
// which sim::Device::reset_frequency already chooses between. Energy is
// always reported in joules, quantized through the vendor counter's unit.
#pragma once

#include <string>
#include <vector>

#include "sim/device.hpp"

namespace dsem::synergy {

/// A vendor management library as the portable layer sees it.
struct VendorApi {
  const char* name;
  double energy_unit_j; ///< resolution of the raw energy counter
};

class Device {
public:
  /// Picks the management API of the spec's vendor; raises
  /// contract_error for a vendor without one.
  explicit Device(sim::Device& simulated);

  std::string name() const { return spec().name; }
  std::string vendor_api() const { return api_->name; }
  const sim::DeviceSpec& spec() const { return device_->spec(); }

  std::vector<double> supported_frequencies() const;
  double default_frequency() const { return device_->default_frequency(); }
  double current_frequency() const { return device_->current_frequency(); }

  void set_frequency(double mhz) { device_->set_core_frequency(mhz); }
  /// Back to the vendor's default clocking: the fixed default clock, or
  /// the auto governor on a device without one.
  void reset_frequency() { device_->reset_frequency(); }

  /// Cumulative device energy in joules, read through the vendor counter.
  double energy_joules() const;

  /// The simulated device behind the handle: what queues launch on, and
  /// the seed source for deterministic replica devices in parallel sweeps.
  sim::Device& simulated() const { return *device_; }

private:
  sim::Device* device_;  // non-owning; device outlives the handle
  const VendorApi* api_; // static vendor table entry
};

} // namespace dsem::synergy
