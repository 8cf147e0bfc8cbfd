// Golden scheduler determinism (grouped suite, heavy tier): scheduling a
// 10^4-job deadline-tagged trace over a 4-rank cluster with really
// trained models produces bit-identical outcomes, stats, and
// deterministic metrics snapshots for thread pools of 1, 2, and 8
// workers — and the model-driven policy dominates the max-clock baseline
// on cluster energy at equal or fewer deadline misses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sched/scheduler.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelRegistry;
using serve::TimedJob;
using serve::TrafficConfig;

// Trained once, shared by every test in the grouped suite.
const ModelRegistry& shared_registry() {
  static ModelRegistry* registry = [] {
    auto* r = new ModelRegistry;
    r->put(serve_test::train_compact_artifact("cronos"));
    r->put(serve_test::train_compact_artifact("ligen"));
    return r;
  }();
  return *registry;
}

const std::vector<TimedJob>& shared_trace() {
  static const std::vector<TimedJob> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 4.0; // a moderately loaded 4-rank cluster
    traffic.population = 64;
    traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
    return serve::generate_job_trace(traffic);
  }();
  return trace;
}

struct SchedRun {
  std::vector<sched::JobOutcome> outcomes;
  sched::SchedStats stats;
  std::string metrics_json; ///< deterministic-only snapshot
};

SchedRun run_policy(sched::FrequencyPolicy policy) {
  celerity::ClusterConfig config;
  config.nodes = 4;
  celerity::Cluster cluster(sim::v100(), config);
  sched::SchedConfig sched_config;
  sched_config.frequency = policy;
  sched_config.margin = policy == sched::FrequencyPolicy::kModel ? 6.0 : 1.0;

  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  sched::ClusterScheduler scheduler(cluster, shared_registry(),
                                    sched_config);
  SchedRun run;
  run.outcomes = scheduler.run(shared_trace());
  run.stats = scheduler.stats();
  run.metrics_json =
      metrics::Registry::global().snapshot().to_json(true).dump(2);
  metrics::set_enabled(was_enabled);
  metrics::Registry::global().clear();
  return run;
}

SchedRun run_model_with_pool(std::size_t threads) {
  ScopedGlobalPool pool(threads);
  return run_policy(sched::FrequencyPolicy::kModel);
}

TEST(SchedDeterminism, OutcomesIdenticalForPools1_2_8) {
  const SchedRun serial = run_model_with_pool(1);
  const SchedRun two = run_model_with_pool(2);
  const SchedRun eight = run_model_with_pool(8);
  ASSERT_EQ(serial.outcomes.size(), 10000u);
  // Full JobOutcome equality: placements, clocks, every simulated
  // timestamp and energy, bit for bit.
  EXPECT_EQ(serial.outcomes, two.outcomes);
  EXPECT_EQ(serial.outcomes, eight.outcomes);
}

TEST(SchedDeterminism, StatsAndMetricsSnapshotsIdenticalForPools1_2_8) {
  const SchedRun serial = run_model_with_pool(1);
  const SchedRun two = run_model_with_pool(2);
  const SchedRun eight = run_model_with_pool(8);

  for (const SchedRun* other : {&two, &eight}) {
    EXPECT_EQ(serial.stats.completed, other->stats.completed);
    EXPECT_EQ(serial.stats.rejected, other->stats.rejected);
    EXPECT_EQ(serial.stats.misses, other->stats.misses);
    EXPECT_EQ(serial.stats.infeasible, other->stats.infeasible);
    EXPECT_EQ(serial.stats.energy_j, other->stats.energy_j);
    EXPECT_EQ(serial.stats.busy_energy_j, other->stats.busy_energy_j);
    EXPECT_EQ(serial.stats.idle_energy_j, other->stats.idle_energy_j);
    EXPECT_EQ(serial.stats.makespan_s, other->stats.makespan_s);
    EXPECT_EQ(serial.metrics_json, other->metrics_json);
  }
  EXPECT_FALSE(serial.metrics_json.empty());
}

TEST(SchedDeterminism, ModelPolicyDominatesMaxClockBaseline) {
  const SchedRun model = run_model_with_pool(8);
  const SchedRun max_clock =
      run_policy(sched::FrequencyPolicy::kMaxClock);
  ASSERT_EQ(model.stats.jobs, max_clock.stats.jobs);
  // Strictly less cluster energy at equal or fewer deadline misses: the
  // model's per-job clock picks convert prediction into energy savings
  // the naive always-max policy cannot see.
  EXPECT_LT(model.stats.energy_j, max_clock.stats.energy_j);
  EXPECT_LE(model.stats.misses, max_clock.stats.misses);
}

} // namespace
