// Concurrency contract of ProfileCache: one cache shared by every replica
// device of a parallel sweep, hammered with identical lookups from many
// threads. Run under the ASan+UBSan CI shard — a data race here corrupts
// every sweep measurement downstream.
#include "sim/profile_cache.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/device_spec.hpp"

namespace dsem::sim {
namespace {

KernelProfile test_kernel() {
  KernelProfile p;
  p.name = "cache_race";
  p.float_add = 512.0;
  p.float_mul = 512.0;
  p.global_bytes = 96.0;
  p.local_bytes = 16.0;
  return p;
}

TEST(ProfileCacheConcurrency, ParallelIdenticalLookupsComputeOneEntry) {
  ProfileCache cache;
  const DeviceSpec spec = v100();
  const KernelProfile kernel = test_kernel();
  constexpr std::size_t kThreads = 16;

  std::vector<LaunchCost> results(kThreads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = cache.lookup(spec, kernel, 1 << 20, 1200.0);
      });
    }
  }

  // Concurrent first lookups may each run the execution model (compute
  // happens outside the lock), but the arithmetic is pure so every result
  // is bit-identical and exactly one entry survives in the cache.
  EXPECT_EQ(cache.size(), 1u);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].time_s, results[0].time_s) << "thread " << t;
    EXPECT_EQ(results[t].energy_j, results[0].energy_j) << "thread " << t;
  }
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads);

  // Once the entry exists, a second identical wave is all hits: the value
  // is computed once and served from memory thereafter.
  const std::uint64_t hits_before = cache.hits();
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const auto cost = cache.lookup(spec, kernel, 1 << 20, 1200.0);
        EXPECT_EQ(cost.time_s, results[0].time_s);
      });
    }
  }
  EXPECT_EQ(cache.hits(), hits_before + kThreads);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCacheConcurrency, DistinctKeysDoNotCollideUnderContention) {
  ProfileCache cache;
  const DeviceSpec spec = v100();
  const KernelProfile kernel = test_kernel();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kFreqs = 24;

  // Every thread walks the same frequency list; each (kernel, freq) pair
  // is one key, looked up kThreads times in total.
  std::vector<std::vector<double>> per_thread(kThreads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t f = 0; f < kFreqs; ++f) {
          const double mhz = 800.0 + 25.0 * static_cast<double>(f);
          per_thread[t].push_back(
              cache.lookup(spec, kernel, 1 << 18, mhz).energy_j);
        }
      });
    }
  }

  EXPECT_EQ(cache.size(), kFreqs);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kFreqs);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[t], per_thread[0]) << "thread " << t;
  }
}

} // namespace
} // namespace dsem::sim
