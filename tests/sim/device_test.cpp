#include "sim/device.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dsem::sim {
namespace {

KernelProfile work_kernel() {
  KernelProfile p;
  p.name = "work";
  p.float_add = 100.0;
  p.float_mul = 100.0;
  p.global_bytes = 64.0;
  return p;
}

TEST(DeviceSpecPresets, V100MatchesPaperSetup) {
  const DeviceSpec spec = v100();
  EXPECT_EQ(spec.vendor, Vendor::kNvidia);
  EXPECT_EQ(spec.core_frequencies.size(), 196u); // paper §5.1
  EXPECT_DOUBLE_EQ(spec.core_frequencies.min(), 135.0);
  EXPECT_DOUBLE_EQ(spec.core_frequencies.max(), 1597.0);
  EXPECT_DOUBLE_EQ(spec.mem_frequency_mhz, 1107.0); // single memory freq
  EXPECT_TRUE(spec.has_fixed_default());
  EXPECT_EQ(spec.total_lanes(), 80 * 64);
  // Peak FP32 ~15.7 TFLOP/s at boost clock.
  EXPECT_NEAR(spec.peak_gflops(1530.0), 15667.0, 100.0);
}

TEST(DeviceSpecPresets, Mi100HasAutoGovernorNoFixedDefault) {
  const DeviceSpec spec = mi100();
  EXPECT_EQ(spec.vendor, Vendor::kAmd);
  EXPECT_FALSE(spec.has_fixed_default());
  EXPECT_GT(spec.auto_frequency_mhz, 0.0);
  EXPECT_EQ(spec.total_lanes(), 120 * 64);
  // Peak FP32 ~23.1 TFLOP/s.
  EXPECT_NEAR(spec.peak_gflops(1502.0), 23071.0, 100.0);
}

TEST(DeviceSpecPresets, ValidateCatchesBrokenSpec) {
  DeviceSpec spec = v100();
  spec.compute_units = 0;
  EXPECT_THROW(validate(spec), contract_error);
  spec = v100();
  spec.compute_efficiency = 1.5;
  EXPECT_THROW(validate(spec), contract_error);
  spec = mi100();
  spec.auto_frequency_mhz = 0.0;
  EXPECT_THROW(validate(spec), contract_error);
}

TEST(Device, DefaultsToDefaultApplicationClock) {
  Device dev(v100(), NoiseConfig::none());
  EXPECT_FALSE(dev.is_auto());
  EXPECT_NEAR(dev.current_frequency(), 1312.0, 8.0);
  EXPECT_DOUBLE_EQ(dev.current_frequency(), dev.default_frequency());
}

TEST(Device, AmdDefaultsToAutoGovernor) {
  Device dev(mi100(), NoiseConfig::none());
  EXPECT_TRUE(dev.is_auto());
  EXPECT_NEAR(dev.current_frequency(), 1502.0, 10.0);
}

TEST(Device, SetFrequencySnapsToSchedule) {
  Device dev(v100(), NoiseConfig::none());
  const double snapped = dev.set_core_frequency(1000.3);
  EXPECT_TRUE(dev.spec().core_frequencies.contains(snapped));
  EXPECT_DOUBLE_EQ(dev.current_frequency(), snapped);
}

TEST(Device, ResetRestoresVendorBehaviour) {
  Device nv(v100(), NoiseConfig::none());
  nv.set_core_frequency(500.0);
  nv.reset_frequency();
  EXPECT_NEAR(nv.current_frequency(), 1312.0, 8.0);

  Device amd(mi100(), NoiseConfig::none());
  amd.set_core_frequency(500.0);
  EXPECT_FALSE(amd.is_auto());
  amd.reset_frequency();
  EXPECT_TRUE(amd.is_auto());
}

TEST(Device, LaunchAccumulatesCounters) {
  Device dev(v100(), NoiseConfig::none());
  const auto r1 = dev.launch(work_kernel(), 100000);
  const auto r2 = dev.launch(work_kernel(), 100000);
  EXPECT_EQ(dev.launch_count(), 2u);
  EXPECT_NEAR(dev.energy_joules(), r1.energy_j + r2.energy_j, 1e-9);
  EXPECT_NEAR(dev.busy_seconds(), r1.time_s + r2.time_s, 1e-12);
}

TEST(Device, ResetCountersZeroes) {
  Device dev(v100(), NoiseConfig::none());
  dev.launch(work_kernel(), 1000);
  dev.reset_counters();
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_DOUBLE_EQ(dev.energy_joules(), 0.0);
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
}

TEST(Device, NoiselessLaunchesAreDeterministic) {
  Device a(v100(), NoiseConfig::none());
  Device b(v100(), NoiseConfig::none());
  const auto ra = a.launch(work_kernel(), 12345);
  const auto rb = b.launch(work_kernel(), 12345);
  EXPECT_DOUBLE_EQ(ra.time_s, rb.time_s);
  EXPECT_DOUBLE_EQ(ra.energy_j, rb.energy_j);
}

TEST(Device, NoiseIsSeededAndReproducible) {
  Device a(v100(), NoiseConfig{0.05, 0.05}, 99);
  Device b(v100(), NoiseConfig{0.05, 0.05}, 99);
  for (int i = 0; i < 10; ++i) {
    const auto ra = a.launch(work_kernel(), 100000);
    const auto rb = b.launch(work_kernel(), 100000);
    EXPECT_DOUBLE_EQ(ra.time_s, rb.time_s);
    EXPECT_DOUBLE_EQ(ra.energy_j, rb.energy_j);
  }
}

TEST(Device, NoisePerturbsWithinClampedRange) {
  Device noisy(v100(), NoiseConfig{0.02, 0.02}, 7);
  Device clean(v100(), NoiseConfig::none());
  const auto truth = clean.launch(work_kernel(), 100000);
  for (int i = 0; i < 200; ++i) {
    const auto r = noisy.launch(work_kernel(), 100000);
    EXPECT_GT(r.time_s, truth.time_s * (1.0 - 0.09));
    EXPECT_LT(r.time_s, truth.time_s * (1.0 + 0.09));
    EXPECT_GT(r.energy_j, 0.0);
  }
}

TEST(Device, NoiseAveragesOut) {
  Device noisy(v100(), NoiseConfig{0.03, 0.03}, 21);
  Device clean(v100(), NoiseConfig::none());
  const auto truth = clean.launch(work_kernel(), 100000);
  double acc = 0.0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    acc += noisy.launch(work_kernel(), 100000).time_s;
  }
  EXPECT_NEAR(acc / n / truth.time_s, 1.0, 0.01);
}

TEST(Device, LaunchUsesPinnedFrequency) {
  Device dev(v100(), NoiseConfig::none());
  dev.set_core_frequency(700.0);
  const auto r = dev.launch(work_kernel(), 1000);
  EXPECT_NEAR(r.frequency_mhz, 700.0, 8.0);
}

TEST(Device, AnalyzeMatchesLaunchTimingWithoutNoise) {
  Device dev(v100(), NoiseConfig::none());
  const auto breakdown = dev.analyze(work_kernel(), 50000);
  const auto r = dev.launch(work_kernel(), 50000);
  EXPECT_DOUBLE_EQ(r.time_s, breakdown.total_s);
}

TEST(Device, ReseedRealignsNoiseStreams) {
  Device a(v100(), NoiseConfig{0.05, 0.05}, 1);
  Device b(v100(), NoiseConfig{0.05, 0.05}, 2);
  b.reseed(1);
  const auto ra = a.launch(work_kernel(), 1000);
  const auto rb = b.launch(work_kernel(), 1000);
  EXPECT_DOUBLE_EQ(ra.time_s, rb.time_s);
}

// Device::launch is launch_cost() measured through measure_launch() under
// the device's own noise stream, bit for bit: the law a replay of
// memoised costs relies on.
TEST(Device, LaunchIsTheNoiseFreeCostThroughMeasureLaunch) {
  for (const DeviceSpec& spec : {v100(), mi100()}) {
    for (const NoiseConfig noise :
         {NoiseConfig::none(), NoiseConfig{}, NoiseConfig{0.05, 0.0},
          NoiseConfig{0.3, 0.4}}) {
      Device dev(spec, noise, 77);
      Rng rng(77);
      for (const double mhz : {0.0, 700.0, 1e9}) {
        if (mhz > 0.0) {
          dev.set_core_frequency(mhz);
        }
        for (const std::size_t items : {1u, 1000u, 123457u}) {
          const LaunchCost want = measure_launch(
              launch_cost(spec, work_kernel(), items, dev.current_frequency()),
              noise, rng);
          const LaunchResult got = dev.launch(work_kernel(), items);
          EXPECT_EQ(got.time_s, want.time_s) << spec.name << " " << items;
          EXPECT_EQ(got.energy_j, want.energy_j) << spec.name << " " << items;
        }
      }
    }
  }
}

TEST(Device, MeasureLaunchWithoutNoiseDrawsNothing) {
  Rng rng(5);
  const Rng untouched = rng;
  const LaunchCost cost{0.25, 40.0};
  const LaunchCost got = measure_launch(cost, NoiseConfig::none(), rng);
  EXPECT_EQ(got.time_s, cost.time_s);
  EXPECT_EQ(got.energy_j, cost.energy_j);
  Rng a = rng;
  Rng b = untouched;
  EXPECT_EQ(a(), b());
}

} // namespace
} // namespace dsem::sim
