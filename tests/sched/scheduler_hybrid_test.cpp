// Pins the cluster scheduler's hybrid-artifact path: a Cronos-only job
// stream planned with a hybrid model (query rows rebuilt from each job's
// domain features plus the fused kernel block) must give bit-identical
// outcomes for thread pools of 1, 2, and 8 workers, equal to a digest
// recorded when the path was first pinned.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "sched/scheduler.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;

// FNV-1a over every outcome field (doubles by bit pattern), in trace order.
std::uint64_t outcome_digest(const std::vector<sched::JobOutcome>& outcomes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const sched::JobOutcome& o : outcomes) {
    mix(o.rejected);
    mix(o.infeasible);
    mix(o.missed);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.rank)));
    for (const double v : {o.freq_mhz, o.deadline_s, o.start_s, o.finish_s,
                           o.true_time_s, o.true_energy_j, o.predicted_time_s,
                           o.predicted_energy_j}) {
      mix(std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

std::vector<sched::JobOutcome> run_hybrid_schedule(std::size_t threads) {
  serve::TrafficConfig traffic;
  traffic.requests = 300;
  traffic.arrival_rate_hz = 4.0;
  traffic.ligen_fraction = 0.0;
  traffic.population = 32;
  const std::vector<serve::TimedJob> jobs = serve::generate_job_trace(traffic);

  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_hybrid_artifact(21));

  celerity::ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  celerity::Cluster cluster(sim::v100(), cluster_config);
  ScopedGlobalPool pool(threads);
  sched::SchedConfig config;
  config.frequency = sched::FrequencyPolicy::kModel;
  config.freq_stride = 1;
  config.margin = 1.5;
  sched::ClusterScheduler scheduler(cluster, registry, config);
  return scheduler.run(jobs);
}

TEST(SchedHybridPin, OutcomesMatchRecordedDigestForPools1_2_8) {
  const std::vector<sched::JobOutcome> serial = run_hybrid_schedule(1);
  ASSERT_EQ(serial.size(), 300u);
  EXPECT_EQ(serial, run_hybrid_schedule(2));
  EXPECT_EQ(serial, run_hybrid_schedule(8));

  // The model steered the clocks: some job runs below the top candidate.
  std::size_t downclocked = 0;
  for (const sched::JobOutcome& o : serial) {
    downclocked += o.freq_mhz < serve_test::kFreqs.back() ? 1 : 0;
  }
  EXPECT_GT(downclocked, 0u);
  EXPECT_EQ(outcome_digest(serial), 0x8c0b86efae0dfbbaULL);
}

} // namespace
