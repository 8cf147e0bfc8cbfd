// The portable device over each vendor's management API: one table of
// {preset, API name, counter unit}, checked through synergy::Device.
#include "synergy/device.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "synergy/queue.hpp"

namespace dsem::synergy {
namespace {

sim::KernelProfile work_kernel() {
  sim::KernelProfile p;
  p.name = "work";
  p.float_add = 64.0;
  p.global_bytes = 32.0;
  return p;
}

struct VendorCase {
  sim::DeviceSpec (*preset)();
  const char* api;
  double unit_j;
};

constexpr VendorCase kVendors[] = {
    {sim::v100, "NVML", 1e-3},
    {sim::mi100, "ROCm SMI", 15.3e-6},
    {sim::intel_max1100, "Level Zero", 1e-6},
};

/// Runs one kernel and checks that the portable energy is the simulated
/// energy read through a counter of `unit_j` resolution.
void expect_counter_quantized(sim::Device& sim_dev, Device& device,
                              double unit_j) {
  Queue queue(device);
  queue.submit({work_kernel(), 100'000'000, {}});
  const double joules = sim_dev.energy_joules();
  ASSERT_GT(joules, 100.0 * unit_j);
  const double counts = device.energy_joules() / unit_j;
  EXPECT_NEAR(counts, std::round(counts), 1e-9 * counts);
  EXPECT_NEAR(device.energy_joules(), joules, 0.5 * unit_j * (1.0 + 1e-9));
}

TEST(SynergyVendorTable, EveryPresetThroughThePortableDevice) {
  for (const VendorCase& vendor : kVendors) {
    SCOPED_TRACE(vendor.api);
    sim::Device sim_dev(vendor.preset(), sim::NoiseConfig::none());
    Device device(sim_dev);
    EXPECT_EQ(device.vendor_api(), vendor.api);
    expect_counter_quantized(sim_dev, device, vendor.unit_j);

    // Reset returns to the vendor's default clocking: the auto governor
    // where the spec has no fixed default clock (ROCm SMI), else the
    // default application clock.
    device.set_frequency(500.0);
    EXPECT_NEAR(device.current_frequency(), 500.0, 10.0);
    EXPECT_FALSE(sim_dev.is_auto());
    device.reset_frequency();
    EXPECT_EQ(sim_dev.is_auto(), !sim_dev.spec().has_fixed_default());
    EXPECT_EQ(device.current_frequency(), device.default_frequency());
  }
}

TEST(SynergyVendorTable, VendorWithoutAnApiIsAContractError) {
  sim::DeviceSpec spec = sim::v100();
  spec.vendor = static_cast<sim::Vendor>(7);
  sim::Device unknown(spec, sim::NoiseConfig::none());
  EXPECT_THROW(Device{unknown}, contract_error);
}

TEST(MakeBackend, PicksVendorBackend) {
  sim::Device nv(sim::v100(), sim::NoiseConfig::none());
  sim::Device amd(sim::mi100(), sim::NoiseConfig::none());
  EXPECT_EQ(Device(nv).vendor_api(), "NVML");
  EXPECT_EQ(Device(amd).vendor_api(), "ROCm SMI");
}

TEST(NvmlBackend, ExposesFullSchedule) {
  sim::Device nv(sim::v100(), sim::NoiseConfig::none());
  const Device device(nv);
  EXPECT_EQ(device.supported_frequencies().size(), 196u);
  EXPECT_NEAR(device.default_frequency(), 1312.0, 8.0);
}

TEST(NvmlBackend, EnergyCounterInMillijoules) {
  sim::Device nv(sim::v100(), sim::NoiseConfig::none());
  Device device(nv);
  expect_counter_quantized(nv, device, 1e-3);
}

TEST(RocmSmiBackend, EnergyCounterIn15MicrojouleUnits) {
  sim::Device amd(sim::mi100(), sim::NoiseConfig::none());
  Device device(amd);
  expect_counter_quantized(amd, device, 15.3e-6);
}

TEST(RocmSmiBackend, ResetReturnsToAutoGovernor) {
  sim::Device amd(sim::mi100(), sim::NoiseConfig::none());
  Device device(amd);
  device.set_frequency(500.0);
  EXPECT_NEAR(device.current_frequency(), 500.0, 10.0);
  device.reset_frequency();
  EXPECT_TRUE(amd.is_auto());
  EXPECT_NEAR(device.current_frequency(), 1502.0, 10.0);
}

TEST(SynergyDevice, PortableEnergyInJoules) {
  sim::Device nv(sim::v100(), sim::NoiseConfig::none());
  Device device(nv);
  Queue queue(device);
  queue.submit({work_kernel(), 100000, {}});
  EXPECT_NEAR(device.energy_joules(), nv.energy_joules(), 1e-3);
}

TEST(SynergyDevice, SameApiAcrossVendors) {
  sim::Device nv(sim::v100(), sim::NoiseConfig::none());
  sim::Device amd(sim::mi100(), sim::NoiseConfig::none());
  std::vector<Device> devices;
  devices.emplace_back(nv);
  devices.emplace_back(amd);
  for (Device& device : devices) {
    EXPECT_FALSE(device.supported_frequencies().empty());
    EXPECT_GT(device.default_frequency(), 0.0);
    device.set_frequency(800.0);
    EXPECT_NEAR(device.current_frequency(), 800.0, 10.0);
    device.reset_frequency();
  }
}

} // namespace
} // namespace dsem::synergy
