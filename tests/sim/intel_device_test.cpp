// Intel preset + Level Zero (the SYnergy layer's third vendor API).
#include <cmath>

#include <gtest/gtest.h>

#include "synergy/queue.hpp"

namespace dsem {
namespace {

sim::KernelProfile work_kernel() {
  sim::KernelProfile p;
  p.name = "work";
  p.float_add = 128.0;
  p.float_mul = 128.0;
  p.global_bytes = 64.0;
  return p;
}

TEST(IntelPreset, MatchesDatasheetShape) {
  const sim::DeviceSpec spec = sim::intel_max1100();
  EXPECT_EQ(spec.vendor, sim::Vendor::kIntel);
  EXPECT_EQ(spec.total_lanes(), 56 * 128);
  EXPECT_TRUE(spec.has_fixed_default());
  EXPECT_DOUBLE_EQ(spec.core_frequencies.min(), 300.0);
  EXPECT_DOUBLE_EQ(spec.core_frequencies.max(), 1550.0);
  // Peak FP32 ~22 TFLOP/s at max clock.
  EXPECT_NEAR(spec.peak_gflops(1550.0), 22221.0, 100.0);
}

TEST(LevelZeroBackend, SelectedForIntelDevices) {
  sim::Device dev(sim::intel_max1100(), sim::NoiseConfig::none());
  EXPECT_EQ(synergy::Device(dev).vendor_api(), "Level Zero");
}

TEST(LevelZeroBackend, MicrojouleEnergyCounter) {
  sim::Device dev(sim::intel_max1100(), sim::NoiseConfig::none());
  synergy::Device device(dev);
  synergy::Queue queue(device);
  queue.submit({work_kernel(), 100000, {}});
  const double microjoules = device.energy_joules() / 1e-6;
  EXPECT_NEAR(microjoules, std::round(microjoules), 1e-6);
  EXPECT_NEAR(device.energy_joules(), dev.energy_joules(), 0.5e-6);
}

TEST(LevelZeroBackend, FrequencyControlRoundTrip) {
  sim::Device dev(sim::intel_max1100(), sim::NoiseConfig::none());
  synergy::Device device(dev);
  device.set_frequency(600.0);
  EXPECT_NEAR(device.current_frequency(), 600.0, 10.0);
  device.reset_frequency();
  EXPECT_NEAR(device.current_frequency(), 900.0, 10.0);
}

TEST(IntelDevice, WorksThroughTheFullPortableStack) {
  sim::Device dev(sim::intel_max1100(), sim::NoiseConfig::none());
  synergy::Device device(dev);
  synergy::Queue queue(device);
  queue.set_target_frequency(1200.0);
  const auto rec = queue.submit({work_kernel(), 1 << 20, {}});
  EXPECT_NEAR(rec.frequency_mhz, 1200.0, 10.0);
  EXPECT_GT(rec.energy_j, 0.0);
}

TEST(IntelDevice, ComputeBoundKernelScalesWithClock) {
  sim::Device dev(sim::intel_max1100(), sim::NoiseConfig::none());
  sim::KernelProfile heavy;
  heavy.float_mul = 2048.0;
  heavy.global_bytes = 8.0;
  dev.set_core_frequency(600.0);
  const auto slow = dev.launch(heavy, 10'000'000);
  dev.set_core_frequency(1500.0);
  const auto fast = dev.launch(heavy, 10'000'000);
  EXPECT_NEAR(slow.time_s / fast.time_s, 1500.0 / 600.0, 0.1);
}

} // namespace
} // namespace dsem
