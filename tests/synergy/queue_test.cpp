#include "synergy/queue.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "cronos/kernels.hpp"
#include "sim/profile_cache.hpp"

namespace dsem::synergy {
namespace {

sim::KernelProfile named_kernel(const std::string& name) {
  sim::KernelProfile p;
  p.name = name;
  p.float_add = 512.0; // compute-bound: runtime reacts to the core clock
  p.global_bytes = 8.0;
  return p;
}

// The profile cache is arithmetic only: a queue that memoizes launch
// costs records the same bits as one that derives every launch, noise
// draws and clock switches included.
TEST(QueueProfileCache, SameRecordsWithAndWithoutACache) {
  const auto run = [](sim::ProfileCache* cache) {
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.015, 0.015}, 0x077);
    Device device(sim_dev);
    Queue queue(device);
    queue.set_profile_cache(cache);
    for (const double mhz : {1312.0, 700.0, 1312.0}) {
      queue.set_target_frequency(mhz);
      cronos::submit_step_kernels(queue, {20, 8, 8}, 8, 2);
    }
    return queue.records();
  };
  sim::ProfileCache cache;
  const std::vector<LaunchRecord> cached = run(&cache);
  const std::vector<LaunchRecord> uncached = run(nullptr);
  EXPECT_GT(cache.hits(), 0u);
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].kernel_name, uncached[i].kernel_name) << i;
    EXPECT_EQ(cached[i].work_items, uncached[i].work_items) << i;
    EXPECT_EQ(cached[i].time_s, uncached[i].time_s) << i;
    EXPECT_EQ(cached[i].energy_j, uncached[i].energy_j) << i;
    EXPECT_EQ(cached[i].frequency_mhz, uncached[i].frequency_mhz) << i;
  }
}

class QueueTest : public ::testing::Test {
protected:
  QueueTest() : sim_(sim::v100(), sim::NoiseConfig::none()), device_(sim_) {}

  sim::Device sim_;
  Device device_;
};

TEST_F(QueueTest, SubmitRecordsLaunch) {
  Queue queue(device_);
  const auto& rec = queue.submit({named_kernel("k"), 1000, {}});
  EXPECT_EQ(rec.kernel_name, "k");
  EXPECT_EQ(rec.work_items, 1000u);
  EXPECT_GT(rec.time_s, 0.0);
  EXPECT_GT(rec.energy_j, 0.0);
  EXPECT_EQ(queue.records().size(), 1u);
}

TEST_F(QueueTest, TotalsAccumulate) {
  Queue queue(device_);
  double t = 0.0;
  double e = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto& rec = queue.submit({named_kernel("k"), 1000, {}});
    t += rec.time_s;
    e += rec.energy_j;
  }
  EXPECT_NEAR(queue.total_time_s(), t, 1e-15);
  EXPECT_NEAR(queue.total_energy_j(), e, 1e-12);
}

TEST_F(QueueTest, SimOnlySkipsHostImpl) {
  Queue queue(device_, ExecMode::kSimOnly);
  bool ran = false;
  queue.submit({named_kernel("k"), 10, [&] { ran = true; }});
  EXPECT_FALSE(ran);
}

TEST_F(QueueTest, ValidateRunsHostImpl) {
  Queue queue(device_, ExecMode::kValidate);
  bool ran = false;
  queue.submit({named_kernel("k"), 10, [&] { ran = true; }});
  EXPECT_TRUE(ran);
}

TEST_F(QueueTest, ValidateToleratesMissingHostImpl) {
  Queue queue(device_, ExecMode::kValidate);
  EXPECT_NO_THROW(queue.submit({named_kernel("k"), 10, {}}));
}

TEST_F(QueueTest, ZeroWorkItemsRejected) {
  Queue queue(device_);
  EXPECT_THROW(queue.submit({named_kernel("k"), 0, {}}), dsem::contract_error);
}

TEST_F(QueueTest, TargetFrequencyAffectsRecords) {
  Queue queue(device_);
  queue.set_target_frequency(500.0);
  const auto& slow = queue.submit({named_kernel("k"), 10'000'000, {}});
  queue.set_target_frequency(1597.0);
  const auto& fast = queue.submit({named_kernel("k"), 10'000'000, {}});
  EXPECT_NEAR(slow.frequency_mhz, 500.0, 10.0);
  EXPECT_NEAR(fast.frequency_mhz, 1597.0, 10.0);
  EXPECT_GT(slow.time_s, fast.time_s);
}

TEST_F(QueueTest, UseDefaultFrequencyRestoresBaseline) {
  Queue queue(device_);
  queue.set_target_frequency(500.0);
  queue.use_default_frequency();
  const auto& rec = queue.submit({named_kernel("k"), 10, {}});
  EXPECT_NEAR(rec.frequency_mhz, device_.default_frequency(), 8.0);
}

TEST_F(QueueTest, KernelSummariesAggregateByName) {
  Queue queue(device_);
  queue.submit({named_kernel("a"), 100, {}});
  queue.submit({named_kernel("b"), 100, {}});
  queue.submit({named_kernel("a"), 100, {}});
  const auto summaries = queue.kernel_summaries();
  ASSERT_EQ(summaries.size(), 2u);
  const auto& a = summaries[0].name == "a" ? summaries[0] : summaries[1];
  EXPECT_EQ(a.launches, 2u);
  EXPECT_GT(a.energy_j, 0.0);
}

TEST_F(QueueTest, ResetClearsEverything) {
  Queue queue(device_);
  queue.submit({named_kernel("k"), 100, {}});
  queue.reset();
  EXPECT_TRUE(queue.records().empty());
  EXPECT_DOUBLE_EQ(queue.total_time_s(), 0.0);
  EXPECT_DOUBLE_EQ(queue.total_energy_j(), 0.0);
}

TEST_F(QueueTest, QueueTotalsMatchDeviceCounters) {
  sim_.reset_counters();
  Queue queue(device_);
  for (int i = 0; i < 3; ++i) {
    queue.submit({named_kernel("k"), 5000, {}});
  }
  EXPECT_NEAR(queue.total_energy_j(), sim_.energy_joules(), 1e-9);
  EXPECT_NEAR(queue.total_time_s(), sim_.busy_seconds(), 1e-12);
}

} // namespace
} // namespace dsem::synergy
