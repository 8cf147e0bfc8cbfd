#include "synergy/device.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace dsem::synergy {

namespace {

const VendorApi& api_for(sim::Vendor vendor) {
  static constexpr VendorApi kNvml{"NVML", 1e-3};
  static constexpr VendorApi kRocmSmi{"ROCm SMI", 15.3e-6};
  static constexpr VendorApi kLevelZero{"Level Zero", 1e-6};
  switch (vendor) {
  case sim::Vendor::kNvidia:
    return kNvml;
  case sim::Vendor::kAmd:
    return kRocmSmi;
  case sim::Vendor::kIntel:
    return kLevelZero;
  }
  DSEM_ENSURE(false, "no management API for vendor: " + to_string(vendor));
  return kNvml; // unreachable
}

} // namespace

Device::Device(sim::Device& simulated)
    : device_(&simulated), api_(&api_for(simulated.spec().vendor)) {}

std::vector<double> Device::supported_frequencies() const {
  const auto freqs = spec().core_frequencies.frequencies();
  return {freqs.begin(), freqs.end()};
}

double Device::energy_joules() const {
  const auto counter = static_cast<std::uint64_t>(
      std::llround(device_->energy_joules() / api_->energy_unit_j));
  return static_cast<double>(counter) * api_->energy_unit_j;
}

} // namespace dsem::synergy
