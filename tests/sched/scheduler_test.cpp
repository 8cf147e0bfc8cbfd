// Unit tests for the deadline-aware cluster scheduler: hand-computed
// frequency picks and placements, a 2-rank / 3-job toy schedule, and the
// graceful-fallback paths (run-at-max vs reject).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sched/scheduler.hpp"
#include "serve/registry.hpp"
#include "sim/device_spec.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using sched::ClusterScheduler;
using sched::Fallback;
using sched::FrequencyPick;
using sched::FrequencyPolicy;
using sched::Placement;
using sched::SchedConfig;
using serve::TimedJob;

// Candidate curves for the hand-computed cases: four clocks, ascending;
// faster clocks cost more energy.
const std::vector<double> kTimes = {4.0, 3.0, 2.0, 1.0};
const std::vector<double> kEnergies = {10.0, 12.0, 16.0, 25.0};

TEST(SchedulerUnit, PicksCheapestFeasibleFrequency) {
  // Deadline 3.5 from start 0: clocks 1..3 are feasible; 12 J is the
  // cheapest of {12, 16, 25}.
  const FrequencyPick pick =
      sched::pick_deadline_frequency(kTimes, kEnergies, 0.0, 3.5, 1.0);
  EXPECT_EQ(pick, (FrequencyPick{1, true}));
}

TEST(SchedulerUnit, MarginShrinksTheFeasibleSet) {
  // margin 1.5: need 1.5 * t <= 3.5, so only t in {2, 1} qualify.
  const FrequencyPick pick =
      sched::pick_deadline_frequency(kTimes, kEnergies, 0.0, 3.5, 1.5);
  EXPECT_EQ(pick, (FrequencyPick{2, true}));
}

TEST(SchedulerUnit, LateStartShrinksTheFeasibleSet) {
  // Same deadline but starting at 1.0: need t <= 2.5.
  const FrequencyPick pick =
      sched::pick_deadline_frequency(kTimes, kEnergies, 1.0, 3.5, 1.0);
  EXPECT_EQ(pick, (FrequencyPick{2, true}));
}

TEST(SchedulerUnit, InfeasibleFallsBackToMaxFrequency) {
  // Even the fastest clock (1 s) cannot meet a 0.5 s deadline.
  const FrequencyPick pick =
      sched::pick_deadline_frequency(kTimes, kEnergies, 0.0, 0.5, 1.0);
  EXPECT_EQ(pick, (FrequencyPick{3, false}));
}

TEST(SchedulerUnit, EnergyTiesPickTheLowerFrequency) {
  const std::vector<double> times = {2.0, 1.0};
  const std::vector<double> energies = {10.0, 10.0};
  const FrequencyPick pick =
      sched::pick_deadline_frequency(times, energies, 0.0, 100.0, 1.0);
  EXPECT_EQ(pick, (FrequencyPick{0, true}));
}

TEST(SchedulerUnit, FirstFitPicksEarliestRankLowestOnTies) {
  const std::vector<double> free_s = {3.0, 1.0, 2.0};
  EXPECT_EQ(sched::place_first_fit(free_s), 1);
  const std::vector<double> ties = {2.0, 2.0, 2.0};
  EXPECT_EQ(sched::place_first_fit(ties), 0);
  const std::vector<double> one = {5.0};
  EXPECT_EQ(sched::place_first_fit(one), 0);
}

// --- toy schedules on a real (noise-free) 2-rank cluster ---------------

celerity::Cluster make_cluster(int nodes) {
  celerity::ClusterConfig config;
  config.nodes = nodes;
  return celerity::Cluster(sim::v100(), config, sim::NoiseConfig::none());
}

TimedJob cronos_job(double arrival_s, double slack) {
  TimedJob job;
  job.arrival_s = arrival_s;
  job.deadline_slack = slack;
  job.spec.application = "cronos";
  job.spec.dims = {16, 16, 16};
  job.spec.steps = 2;
  // Features match the synthetic 3-feature artifacts of serve_test_util.
  job.request.application = "cronos";
  job.request.features = {16.0, 8.0, 100.0};
  return job;
}

TEST(SchedulerToy, TwoRanksThreeJobsPlaceAsComputedByHand) {
  // Three simultaneous arrivals on two idle, identical, noise-free ranks:
  // first fit sends job 0 to rank 0 and job 1 to rank 1; both finish at
  // the same instant (identical work, noise-free), so job 2 ties back to
  // rank 0 and starts exactly at job 0's finish.
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry; // baselines never consult it
  SchedConfig config;
  config.frequency = FrequencyPolicy::kStaticDefault;
  ClusterScheduler scheduler(cluster, registry, config);

  const std::vector<TimedJob> jobs = {cronos_job(0.0, 10.0),
                                      cronos_job(0.0, 10.0),
                                      cronos_job(0.0, 10.0)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].rank, 0);
  EXPECT_EQ(outcomes[1].rank, 1);
  EXPECT_EQ(outcomes[2].rank, 0);
  EXPECT_DOUBLE_EQ(outcomes[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(outcomes[1].start_s, 0.0);
  EXPECT_DOUBLE_EQ(outcomes[0].finish_s, outcomes[1].finish_s);
  EXPECT_DOUBLE_EQ(outcomes[2].start_s, outcomes[0].finish_s);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.missed);
    EXPECT_GT(outcome.true_time_s, 0.0);
    EXPECT_GT(outcome.true_energy_j, 0.0);
  }
  const auto& stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.makespan_s, outcomes[2].finish_s);
  EXPECT_GT(stats.idle_energy_j, 0.0); // rank 1 idles while job 2 runs
  EXPECT_DOUBLE_EQ(stats.energy_j,
                   stats.busy_energy_j + stats.idle_energy_j);
}

TEST(SchedulerToy, ModelPolicyPicksTheFrequencyComputedByHand) {
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(11));
  SchedConfig config;
  config.frequency = FrequencyPolicy::kModel;
  config.freq_stride = 1; // plan over the full {600..1400} schedule
  ClusterScheduler scheduler(cluster, registry, config);

  // Slack 5 with anchored predictions (times = ref / speedup, speedup
  // well above 1/5 everywhere) keeps every candidate feasible.
  const std::vector<TimedJob> jobs = {cronos_job(0.0, 5.0)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& outcome = outcomes[0];
  ASSERT_FALSE(outcome.infeasible);

  // Recompute the pick by hand: the scheduler anchors the model's
  // speedup / normalized-energy shape at the job's noise-free
  // default-clock reference run, then takes the cheapest candidate
  // meeting the deadline.
  sim::Device ref_device(sim::v100(), sim::NoiseConfig::none(), 0);
  synergy::Device ref_synergy(ref_device);
  synergy::Queue ref_queue(ref_synergy);
  serve::make_workload(jobs[0].spec)->submit(ref_queue);
  const double ref_time_s = ref_queue.total_time_s();
  const double ref_energy_j = ref_queue.total_energy_j();

  const auto artifact =
      registry.require(serve::ModelKey{"cronos", "v100"});
  const core::Prediction pred =
      artifact->ds->predict(jobs[0].request.features, serve_test::kFreqs,
                            serve_test::kDefaultFreq);
  std::vector<double> times;
  std::vector<double> energies;
  for (std::size_t k = 0; k < pred.speedup.size(); ++k) {
    times.push_back(ref_time_s / pred.speedup[k]);
    energies.push_back(ref_energy_j * pred.norm_energy[k]);
  }
  const sched::FrequencyPick pick = sched::pick_deadline_frequency(
      times, energies, 0.0, outcome.deadline_s, 1.0);
  EXPECT_TRUE(pick.feasible);
  EXPECT_DOUBLE_EQ(outcome.freq_mhz, serve_test::kFreqs[pick.index]);
  EXPECT_DOUBLE_EQ(outcome.predicted_time_s, times[pick.index]);
  EXPECT_DOUBLE_EQ(outcome.predicted_energy_j, energies[pick.index]);
}

TEST(SchedulerToy, ModelPolicyRejectsNonFiniteRequestsUpFront) {
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(11));
  SchedConfig config;
  config.frequency = FrequencyPolicy::kModel;
  ClusterScheduler scheduler(cluster, registry, config);

  // A non-finite feature would otherwise reach the forests and come back
  // as a silent clock pick; the bad job is last, so the whole run must be
  // refused before the good one executes.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    std::vector<TimedJob> jobs = {cronos_job(0.0, 5.0), cronos_job(1.0, 5.0)};
    jobs[1].request.features[1] = bad;
    EXPECT_THROW(scheduler.run(jobs), contract_error) << bad;
    EXPECT_EQ(scheduler.stats().completed, 0u) << bad;
  }
  std::vector<TimedJob> jobs = {cronos_job(0.0, 5.0)};
  jobs[0].request.max_slowdown = inf;
  EXPECT_THROW(scheduler.run(jobs), contract_error);
}

TEST(SchedulerToy, InfeasibleJobRunsAtMaxUnderRunAtMaxFallback) {
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(11));
  SchedConfig config;
  config.frequency = FrequencyPolicy::kModel;
  ClusterScheduler scheduler(cluster, registry, config);

  // Slack so small no clock can make the deadline.
  const std::vector<TimedJob> jobs = {cronos_job(0.0, 1e-9)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].infeasible);
  EXPECT_FALSE(outcomes[0].rejected);
  EXPECT_TRUE(outcomes[0].missed); // ran, but past the deadline
  EXPECT_DOUBLE_EQ(outcomes[0].freq_mhz, serve_test::kFreqs.back());
  EXPECT_EQ(scheduler.stats().infeasible, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
}

TEST(SchedulerToy, InfeasibleJobIsDroppedUnderRejectFallback) {
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(11));
  SchedConfig config;
  config.frequency = FrequencyPolicy::kModel;
  config.fallback = Fallback::kReject;
  ClusterScheduler scheduler(cluster, registry, config);

  const std::vector<TimedJob> jobs = {cronos_job(0.0, 1e-9),
                                      cronos_job(0.0, 5.0)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].rejected);
  EXPECT_TRUE(outcomes[0].missed);
  EXPECT_EQ(outcomes[0].rank, -1);
  EXPECT_DOUBLE_EQ(outcomes[0].true_energy_j, 0.0);
  EXPECT_FALSE(outcomes[1].rejected);
  const auto& stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(SchedulerToy, MaxClockBaselinePinsEveryRankToTheTopClock) {
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  SchedConfig config;
  config.frequency = FrequencyPolicy::kMaxClock;
  ClusterScheduler scheduler(cluster, registry, config);

  const auto supported = cluster.device(0).supported_frequencies();
  const double max_mhz =
      *std::max_element(supported.begin(), supported.end());
  const std::vector<TimedJob> jobs = {cronos_job(0.0, 10.0)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(outcomes[0].freq_mhz, max_mhz);
  EXPECT_EQ(scheduler.stats().clock_rejections, 0u);
  // The broadcast is undone after the run.
  EXPECT_DOUBLE_EQ(cluster.device(0).current_frequency(),
                   cluster.device(0).default_frequency());
}

TEST(SchedulerToy, EnergyGreedyMatchesFirstFitOnIdenticalIdleRanks) {
  // With both ranks idle and identical curves everywhere, greedy has no
  // energy gradient to exploit and must resolve ties to the lower rank.
  auto cluster = make_cluster(2);
  serve::ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(11));
  SchedConfig config;
  config.frequency = FrequencyPolicy::kModel;
  config.placement = Placement::kEnergyGreedy;
  ClusterScheduler scheduler(cluster, registry, config);

  const std::vector<TimedJob> jobs = {cronos_job(0.0, 5.0)};
  const auto outcomes = scheduler.run(jobs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].rank, 0);
}

} // namespace
