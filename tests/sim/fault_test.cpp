#include "sim/fault.hpp"

#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sim/device.hpp"

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

TEST(FaultConfig, DefaultIsInert) {
  const FaultConfig config;
  EXPECT_FALSE(config.any());
  FaultInjector injector(config, 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_fail_set_frequency());
    EXPECT_FALSE(injector.should_fail_launch());
    EXPECT_EQ(injector.energy_read_fault(), FaultInjector::EnergyFault::kNone);
  }
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultConfig, UniformSetsEveryRate) {
  const FaultConfig config = FaultConfig::uniform(0.2);
  EXPECT_TRUE(config.any());
  EXPECT_DOUBLE_EQ(config.set_frequency_rate, 0.2);
  EXPECT_DOUBLE_EQ(config.energy_read_drop_rate, 0.2);
  EXPECT_DOUBLE_EQ(config.energy_read_garbage_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.launch_rate, 0.2);
}

TEST(FaultInjector, ScheduleIsAPureFunctionOfSeed) {
  const FaultConfig config = FaultConfig::uniform(0.3);
  FaultInjector a(config, 1234);
  FaultInjector b(config, 1234);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.should_fail_set_frequency(), b.should_fail_set_frequency());
    EXPECT_EQ(a.should_fail_launch(), b.should_fail_launch());
    EXPECT_EQ(a.energy_read_fault(), b.energy_read_fault());
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(FaultInjector, RatesActuallyBiteAtRoughlyTheConfiguredRate) {
  FaultConfig config;
  config.launch_rate = 0.25;
  FaultInjector injector(config, 7);
  int fired = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    fired += injector.should_fail_launch() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.25, 0.03);
}

TEST(FaultInjector, GarbageEnergyIsAlwaysNegative) {
  FaultInjector injector(FaultConfig::uniform(0.5), 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(injector.garbage_energy(12.5), 0.0);
    EXPECT_LT(injector.garbage_energy(0.0), 0.0);
  }
}

TEST(TransientFaultTest, CarriesKindAndMessage) {
  const TransientFault fault(FaultKind::kEnergyRead, "boom");
  EXPECT_EQ(fault.kind(), FaultKind::kEnergyRead);
  EXPECT_STREQ(fault.what(), "boom");
  EXPECT_STREQ(to_string(FaultKind::kSetFrequency), "set-frequency");
  EXPECT_STREQ(to_string(FaultKind::kEnergyRead), "energy-read");
  EXPECT_STREQ(to_string(FaultKind::kKernelLaunch), "kernel-launch");
}

TEST(TransientFaultTest, CheckReadingPassesOnlyFiniteNonNegativeReadings) {
  EXPECT_NO_THROW(check_reading("k", 0.0, 0.0));
  EXPECT_NO_THROW(check_reading("k", 1e-9, 3.5));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [time_s, energy_j] :
       {std::pair{-1e-12, 1.0}, std::pair{1.0, -0.5}, std::pair{nan, 1.0},
        std::pair{1.0, nan}, std::pair{inf, 1.0}, std::pair{1.0, inf}}) {
    try {
      check_reading("cronos::cflReduce", time_s, energy_j);
      ADD_FAILURE() << time_s << " s, " << energy_j << " J accepted";
    } catch (const TransientFault& fault) {
      EXPECT_EQ(fault.kind(), FaultKind::kEnergyRead);
      EXPECT_NE(std::string(fault.what()).find("cronos::cflReduce"),
                std::string::npos);
    }
  }
}

TEST(DeviceFaults, ZeroRateDeviceIsBitIdenticalToUnfaultedDevice) {
  Device plain(v100(), NoiseConfig{}, 0xABCD);
  Device faulted(v100(), NoiseConfig{}, 0xABCD);
  faulted.set_fault_config(FaultConfig{}); // all-zero rates
  const KernelProfile kernel = work_kernel();
  for (int i = 0; i < 50; ++i) {
    const LaunchResult a = plain.launch(kernel, 1 << 16);
    const LaunchResult b = faulted.launch(kernel, 1 << 16);
    EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  }
}

TEST(DeviceFaults, EnablingFaultsDoesNotPerturbTheNoiseStream) {
  // The injector draws from its own salted stream: launches that survive
  // injection must observe exactly the noise an unfaulted device draws.
  Device plain(v100(), NoiseConfig{}, 0x77);
  Device faulted(v100(), NoiseConfig{}, 0x77);
  FaultConfig config;
  config.launch_rate = 0.3; // only aborted launches; no read corruption
  faulted.set_fault_config(config);
  const KernelProfile kernel = work_kernel();
  for (int i = 0; i < 100; ++i) {
    const LaunchResult a = plain.launch(kernel, 1 << 16);
    for (;;) {
      try {
        const LaunchResult b = faulted.launch(kernel, 1 << 16);
        EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
        EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
        break;
      } catch (const TransientFault&) {
        // Aborted before the noise draw; retry reaches the same draw.
      }
    }
  }
  EXPECT_GT(faulted.faults_injected(), 0u);
}

TEST(DeviceFaults, SetFrequencyRejectionsAreRetryable) {
  Device dev(v100(), NoiseConfig::none(), 0x1111);
  FaultConfig config;
  config.set_frequency_rate = 0.5;
  dev.set_fault_config(config);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      dev.set_core_frequency(900.0);
    } catch (const TransientFault& fault) {
      EXPECT_EQ(fault.kind(), FaultKind::kSetFrequency);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 200);
  // reset_frequency is the recovery path and never injects.
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(dev.reset_frequency());
  }
}

TEST(DeviceFaults, CountersAccumulateTrueValuesThroughBadReads) {
  Device clean(v100(), NoiseConfig::none(), 0x2222);
  Device dirty(v100(), NoiseConfig::none(), 0x2222);
  FaultConfig config;
  config.energy_read_drop_rate = 0.3;
  config.energy_read_garbage_rate = 0.3;
  dirty.set_fault_config(config);
  const KernelProfile kernel = work_kernel();

  int dropped = 0;
  int garbage = 0;
  for (int i = 0; i < 200; ++i) {
    const LaunchResult truth = clean.launch(kernel, 1 << 14);
    try {
      const LaunchResult seen = dirty.launch(kernel, 1 << 14);
      if (seen.energy_j < 0.0) {
        ++garbage;
      } else {
        EXPECT_DOUBLE_EQ(seen.energy_j, truth.energy_j);
      }
    } catch (const TransientFault& fault) {
      EXPECT_EQ(fault.kind(), FaultKind::kEnergyRead);
      ++dropped;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(garbage, 0);
  // The hardware consumed the energy whether or not the read succeeded.
  EXPECT_DOUBLE_EQ(dirty.energy_joules(), clean.energy_joules());
  EXPECT_EQ(dirty.launch_count(), clean.launch_count());
}

TEST(DeviceFaults, ReplicaInheritsConfigWithItsOwnSchedule) {
  Device base(v100(), NoiseConfig{}, 0x3333);
  const FaultConfig config = FaultConfig::uniform(0.2);
  base.set_fault_config(config);

  Device rep_a = base.replica(derive_seed(base.seed(), 5));
  Device rep_b = base.replica(derive_seed(base.seed(), 5));
  EXPECT_EQ(rep_a.fault_config(), config);

  // Same replica seed -> identical schedule; observed as identical
  // outcomes over a run of launches.
  const KernelProfile kernel = work_kernel();
  for (int i = 0; i < 100; ++i) {
    double ea = -1.0;
    double eb = -1.0;
    bool threw_a = false;
    bool threw_b = false;
    try {
      ea = rep_a.launch(kernel, 1 << 14).energy_j;
    } catch (const TransientFault&) {
      threw_a = true;
    }
    try {
      eb = rep_b.launch(kernel, 1 << 14).energy_j;
    } catch (const TransientFault&) {
      threw_b = true;
    }
    EXPECT_EQ(threw_a, threw_b);
    EXPECT_DOUBLE_EQ(ea, eb);
  }
}

} // namespace
} // namespace dsem::sim
