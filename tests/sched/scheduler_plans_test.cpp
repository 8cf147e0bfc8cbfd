// Phase 1 of the cluster scheduler plans once per distinct job input (the
// full workload spec plus the features by bit pattern). These tests pin
// that a shared plan is exactly the plan the job would get on its own —
// with repeated inputs and near-collisions in one stream — and that the
// number of plans follows the input population, for pools of 1, 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sched/scheduler.hpp"
#include "serve/registry.hpp"
#include "sim/device_spec.hpp"
#include "synergy/queue.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::TimedJob;

// Trained once, shared by both tests.
const serve::ModelRegistry& synthetic_registry() {
  static const serve::ModelRegistry* registry = [] {
    auto* r = new serve::ModelRegistry;
    r->put(serve_test::synthetic_artifact(11, "cronos"));
    r->put(serve_test::synthetic_artifact(12, "ligen"));
    return r;
  }();
  return *registry;
}

TimedJob cronos_job(double arrival_s, double slack, int steps,
                    std::vector<double> features) {
  TimedJob job;
  job.arrival_s = arrival_s;
  job.deadline_slack = slack;
  job.spec.application = "cronos";
  job.spec.dims = {16, 16, 16};
  job.spec.steps = steps;
  job.request.application = "cronos";
  job.request.features = std::move(features);
  return job;
}

TimedJob ligen_job(double arrival_s, double slack) {
  TimedJob job;
  job.arrival_s = arrival_s;
  job.deadline_slack = slack;
  job.spec.application = "ligen";
  job.spec.ligands = 64;
  job.spec.atoms = 32;
  job.spec.fragments = 8;
  job.request.application = "ligen";
  job.request.features = {64.0, 8.0, 32.0};
  return job;
}

/// Repeated inputs, two Cronos jobs of equal dims (so equal features) and
/// different step counts, and two jobs of one spec with different
/// features, interleaved with a LiGen input.
std::vector<TimedJob> colliding_stream() {
  const std::vector<double> features = {16.0, 8.0, 100.0};
  const std::vector<double> other = {120.0, 20.0, 9000.0};
  return {cronos_job(0.0, 5.0, 2, features), ligen_job(0.1, 4.0),
          cronos_job(0.2, 6.0, 3, features), cronos_job(0.3, 5.0, 2, other),
          cronos_job(0.4, 3.0, 2, features), ligen_job(0.5, 8.0),
          cronos_job(0.6, 7.0, 3, features), cronos_job(0.7, 9.0, 2, other)};
}

/// A job input's noise-free reference run at the default clock, on a
/// fresh device.
struct Reference {
  double time_s = 0.0;
  double energy_j = 0.0;
};

Reference reference_run(const serve::WorkloadSpec& spec) {
  sim::Device device(sim::v100(), sim::NoiseConfig::none(), 0);
  synergy::Device synergy_device(device);
  synergy::Queue queue(synergy_device, synergy::ExecMode::kSimOnly);
  serve::make_workload(spec)->submit(queue);
  return {queue.total_time_s(), queue.total_energy_j()};
}

struct PlannedRun {
  std::vector<sched::JobOutcome> outcomes;
  std::uint64_t plans = 0;
};

PlannedRun run_model_policy(const serve::ModelRegistry& registry,
                            const std::vector<TimedJob>& jobs,
                            std::size_t threads, std::size_t freq_stride) {
  ScopedGlobalPool pool(threads);
  celerity::ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  celerity::Cluster cluster(sim::v100(), cluster_config);
  sched::SchedConfig config;
  config.frequency = sched::FrequencyPolicy::kModel;
  config.freq_stride = freq_stride;

  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  sched::ClusterScheduler scheduler(cluster, registry, config);
  PlannedRun run;
  run.outcomes = scheduler.run(jobs);
  for (const auto& counter : metrics::Registry::global().snapshot().counters) {
    if (counter.name == std::string_view("sched.plans")) {
      run.plans = counter.total;
    }
  }
  metrics::set_enabled(was_enabled);
  metrics::Registry::global().clear();
  return run;
}

TEST(SchedPlans, SharedPlansMatchAFreshPlanPerJobForPools1_2_8) {
  const serve::ModelRegistry& registry = synthetic_registry();
  const std::vector<TimedJob> jobs = colliding_stream();
  // Stride 2 over {600 .. 1400}: candidates {600, 1000, 1400}.
  const std::vector<double> candidates = {600.0, 1000.0, 1400.0};

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const PlannedRun run = run_model_policy(registry, jobs, threads, 2);
    ASSERT_EQ(run.outcomes.size(), jobs.size());
    // Distinct inputs: cronos steps 2, cronos steps 3, cronos with the
    // other features, ligen.
    EXPECT_EQ(run.plans, 4u) << threads;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const TimedJob& job = jobs[i];
      const sched::JobOutcome& outcome = run.outcomes[i];

      // This job's own plan, from scratch: the reference run and the
      // model's curves anchored at it.
      const Reference ref = reference_run(job.spec);
      EXPECT_EQ(outcome.deadline_s,
                job.arrival_s + job.deadline_slack * ref.time_s)
          << "job " << i << ", pool " << threads;

      const auto picked =
          std::find(candidates.begin(), candidates.end(), outcome.freq_mhz);
      ASSERT_NE(picked, candidates.end()) << "job " << i;
      const auto k = static_cast<std::size_t>(picked - candidates.begin());
      const auto artifact = registry.require(
          serve::ModelKey{job.spec.application, "v100"});
      const core::Prediction pred =
          artifact->predict(job.request.features, candidates);
      EXPECT_EQ(outcome.predicted_time_s, ref.time_s / pred.speedup[k])
          << "job " << i << ", pool " << threads;
      EXPECT_EQ(outcome.predicted_energy_j, ref.energy_j * pred.norm_energy[k])
          << "job " << i << ", pool " << threads;
    }
  }

  // The near-collisions are real: a merged plan would change a deadline
  // or a prediction checked above.
  const auto cronos = registry.require(serve::ModelKey{"cronos", "v100"});
  EXPECT_NE(cronos->predict(jobs[0].request.features, candidates).speedup,
            cronos->predict(jobs[3].request.features, candidates).speedup);
  EXPECT_NE(reference_run(jobs[0].spec).time_s,
            reference_run(jobs[2].spec).time_s);
}

TEST(SchedPlans, PlanCountFollowsThePopulationForPools1_2_8) {
  const serve::ModelRegistry& registry = synthetic_registry();
  serve::TrafficConfig traffic;
  traffic.requests = 2500;
  traffic.arrival_rate_hz = 4.0;
  traffic.population = 64;
  const std::vector<TimedJob> jobs = serve::generate_job_trace(traffic);

  const PlannedRun serial = run_model_policy(registry, jobs, 1, 4);
  EXPECT_GT(serial.plans, 64u);
  EXPECT_LE(serial.plans, 128u);
  for (const std::size_t threads : {2u, 8u}) {
    const PlannedRun run = run_model_policy(registry, jobs, threads, 4);
    EXPECT_EQ(run.plans, serial.plans) << threads;
    EXPECT_EQ(run.outcomes, serial.outcomes) << threads;
  }
}

} // namespace
