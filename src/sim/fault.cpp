#include "sim/fault.hpp"

#include <cmath>

namespace dsem::sim {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
  case FaultKind::kSetFrequency:
    return "set-frequency";
  case FaultKind::kEnergyRead:
    return "energy-read";
  case FaultKind::kKernelLaunch:
    return "kernel-launch";
  }
  return "unknown";
}

void check_reading(const std::string& kernel, double time_s,
                   double energy_j) {
  if (!(std::isfinite(time_s) && time_s >= 0.0 && std::isfinite(energy_j) &&
        energy_j >= 0.0)) {
    throw TransientFault(FaultKind::kEnergyRead,
                         "garbage counter reading for " + kernel +
                             ": time=" + std::to_string(time_s) +
                             " s, energy=" + std::to_string(energy_j) +
                             " J");
  }
}

} // namespace dsem::sim
