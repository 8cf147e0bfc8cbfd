// A scheduled job executes as a replay of its input's memoised noise-free
// launch costs under the job's replica noise stream. These tests pin that
// every completed job reads, bit for bit, what a fresh run of its workload
// on that replica reads: under every frequency policy and both
// placements, on a fixed-default (V100) and an auto-governed (MI100)
// device, with and without noise, for one input at several clocks, for
// LiGen screens with and without a remainder batch, and for pools of 1, 2
// and 8. A metered run also counts exactly the launches of the reference
// and replica runs it stands for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/scheduler.hpp"
#include "serve/registry.hpp"
#include "sim/device_spec.hpp"
#include "sim/fault.hpp"
#include "synergy/queue.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using sched::FrequencyPolicy;
using sched::JobOutcome;
using sched::Placement;
using sched::SchedConfig;
using serve::TimedJob;

const serve::ModelRegistry& synthetic_registry() {
  static const serve::ModelRegistry* registry = [] {
    auto* r = new serve::ModelRegistry;
    for (const char* device : {"v100", "mi100"}) {
      r->put(serve_test::synthetic_artifact(21, "cronos", device));
      r->put(serve_test::synthetic_artifact(22, "ligen", device));
    }
    return r;
  }();
  return *registry;
}

TimedJob cronos_job(double arrival_s, double slack, int side, int steps) {
  TimedJob job;
  job.arrival_s = arrival_s;
  job.deadline_slack = slack;
  job.spec.application = "cronos";
  job.spec.dims = {side, side, side};
  job.spec.steps = steps;
  job.request.application = "cronos";
  job.request.features = serve::make_workload(job.spec)->domain_features();
  return job;
}

TimedJob ligen_job(double arrival_s, double slack, int ligands) {
  TimedJob job;
  job.arrival_s = arrival_s;
  job.deadline_slack = slack;
  job.spec.application = "ligen";
  job.spec.ligands = ligands;
  job.spec.atoms = 32;
  job.spec.fragments = 8;
  job.request.application = "ligen";
  job.request.features = serve::make_workload(job.spec)->domain_features();
  return job;
}

/// Repeated inputs under tight and loose deadlines, so one input runs at
/// several clocks, arriving fast enough that ranks queue up.
std::vector<TimedJob> mixed_stream() {
  std::vector<TimedJob> jobs;
  const double slacks[] = {1.0, 8.0, 2.0, 30.0, 1.2};
  for (int k = 0; k < 20; ++k) {
    const double arrival = 0.01 * k;
    const double slack = slacks[k % 5];
    switch (k % 4) {
    case 0:
      jobs.push_back(cronos_job(arrival, slack, 16, 2));
      break;
    case 1:
      jobs.push_back(ligen_job(arrival, slack, 5000));
      break;
    case 2:
      jobs.push_back(cronos_job(arrival, slack, 24, 1));
      break;
    default:
      jobs.push_back(ligen_job(arrival, slack, 64));
      break;
    }
  }
  return jobs;
}

struct Reading {
  double time_s = 0.0;
  double energy_j = 0.0;
  std::size_t launches = 0;
};

/// The job's fresh run: its workload submitted to a queue at the
/// outcome's clock on the replica the job's index seeds, faults cleared.
Reading fresh_run(celerity::Cluster& cluster, std::uint64_t seed,
                  std::size_t i, const JobOutcome& outcome,
                  const serve::WorkloadSpec& spec) {
  sim::Device replica = cluster.device(outcome.rank).simulated().replica(
      derive_seed(seed, static_cast<std::uint64_t>(i)));
  replica.set_fault_config({});
  synergy::Device device(replica);
  synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
  if (outcome.freq_mhz > 0.0) {
    queue.set_target_frequency(outcome.freq_mhz);
  }
  serve::make_workload(spec)->submit(queue);
  return {queue.total_time_s(), queue.total_energy_j(),
          queue.records().size()};
}

std::vector<JobOutcome> run_scheduler(celerity::Cluster& cluster,
                                      const SchedConfig& config,
                                      const std::vector<TimedJob>& jobs,
                                      std::size_t threads) {
  ScopedGlobalPool pool(threads);
  sched::ClusterScheduler scheduler(cluster, synthetic_registry(), config);
  return scheduler.run(jobs);
}

/// Every completed job's true cost equals its fresh run, bit for
/// bit; returns how many completed.
std::size_t expect_replays_match(celerity::Cluster& cluster,
                                 const SchedConfig& config,
                                 const std::vector<TimedJob>& jobs,
                                 const std::vector<JobOutcome>& outcomes,
                                 const std::string& label) {
  EXPECT_EQ(outcomes.size(), jobs.size()) << label;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const JobOutcome& outcome = outcomes[i];
    if (outcome.rejected) {
      continue;
    }
    ++completed;
    const Reading want =
        fresh_run(cluster, config.seed, i, outcome, jobs[i].spec);
    EXPECT_EQ(outcome.true_time_s, want.time_s) << label << ", job " << i;
    EXPECT_EQ(outcome.true_energy_j, want.energy_j) << label << ", job " << i;
  }
  return completed;
}

struct DeviceCase {
  const char* name;
  sim::DeviceSpec spec;
};

const std::vector<DeviceCase>& devices() {
  static const std::vector<DeviceCase> out = {{"v100", sim::v100()},
                                              {"mi100", sim::mi100()}};
  return out;
}

celerity::Cluster make_cluster(const sim::DeviceSpec& spec,
                               sim::NoiseConfig noise = {}) {
  celerity::ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  return celerity::Cluster(spec, cluster_config, noise);
}

TEST(SchedReplay, ModelPolicyMatchesFreshRunsForPools1_2_8) {
  const std::vector<TimedJob> jobs = mixed_stream();
  for (const DeviceCase& device : devices()) {
    for (const Placement placement :
         {Placement::kFirstFit, Placement::kEnergyGreedy}) {
      SchedConfig config;
      config.device = device.name;
      config.placement = placement;
      config.freq_stride = 2;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        celerity::Cluster cluster = make_cluster(device.spec);
        const std::string label =
            std::string(device.name) + " placement " +
            std::to_string(static_cast<int>(placement)) + " pool " +
            std::to_string(threads);
        const auto outcomes = run_scheduler(cluster, config, jobs, threads);
        EXPECT_EQ(expect_replays_match(cluster, config, jobs, outcomes, label),
                  jobs.size())
            << label;
      }
    }
  }
}

// kStaticDefault runs every job at the device's default clock: the fixed
// default on the V100, the auto governor's clock on the MI100.
TEST(SchedReplay, BaselinesMatchFreshRunsForPools1_2_8) {
  const std::vector<TimedJob> jobs = mixed_stream();
  for (const DeviceCase& device : devices()) {
    for (const FrequencyPolicy policy :
         {FrequencyPolicy::kMaxClock, FrequencyPolicy::kStaticDefault}) {
      SchedConfig config;
      config.device = device.name;
      config.frequency = policy;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        celerity::Cluster cluster = make_cluster(device.spec);
        const std::string label =
            std::string(device.name) + " policy " +
            std::to_string(static_cast<int>(policy)) + " pool " +
            std::to_string(threads);
        const auto outcomes = run_scheduler(cluster, config, jobs, threads);
        EXPECT_EQ(expect_replays_match(cluster, config, jobs, outcomes, label),
                  jobs.size())
            << label;
        for (const JobOutcome& outcome : outcomes) {
          EXPECT_EQ(outcome.freq_mhz > 0.0,
                    policy == FrequencyPolicy::kMaxClock)
              << label;
        }
      }
    }
  }
}

TEST(SchedReplay, ZeroNoiseClusterMatchesFreshRuns) {
  const std::vector<TimedJob> jobs = mixed_stream();
  for (const DeviceCase& device : devices()) {
    for (const FrequencyPolicy policy :
         {FrequencyPolicy::kModel, FrequencyPolicy::kStaticDefault}) {
      SchedConfig config;
      config.device = device.name;
      config.frequency = policy;
      config.freq_stride = 2;
      celerity::Cluster cluster =
          make_cluster(device.spec, sim::NoiseConfig::none());
      const auto outcomes = run_scheduler(cluster, config, jobs, 2);
      expect_replays_match(cluster, config, jobs, outcomes,
                           std::string(device.name) + " noise-free");
      // Without noise, equal inputs at equal clocks cost exactly the same.
      for (std::size_t a = 0; a < jobs.size(); ++a) {
        for (std::size_t b = a + 1; b < jobs.size(); ++b) {
          if (jobs[a].spec == jobs[b].spec &&
              outcomes[a].freq_mhz == outcomes[b].freq_mhz) {
            EXPECT_EQ(outcomes[a].true_time_s, outcomes[b].true_time_s);
            EXPECT_EQ(outcomes[a].true_energy_j, outcomes[b].true_energy_j);
          }
        }
      }
    }
  }
}

TEST(SchedReplay, OneInputAtSeveralClocksMatchesFreshRuns) {
  std::vector<TimedJob> jobs;
  for (int k = 0; k < 12; ++k) {
    jobs.push_back(cronos_job(5.0 * k, k % 2 == 0 ? 1.0 : 50.0, 16, 2));
  }
  for (const DeviceCase& device : devices()) {
    SchedConfig config;
    config.device = device.name;
    config.freq_stride = 1;
    celerity::Cluster cluster = make_cluster(device.spec);
    const auto outcomes = run_scheduler(cluster, config, jobs, 1);
    expect_replays_match(cluster, config, jobs, outcomes,
                         std::string(device.name) + " several clocks");
    std::set<double> clocks;
    for (const JobOutcome& outcome : outcomes) {
      clocks.insert(outcome.freq_mhz);
    }
    EXPECT_GE(clocks.size(), 2u) << device.name;
  }
}

// Screens batch 4096 ligands per launch: 64 ligands launch only a
// remainder batch, 8192 only full batches, 5000 both.
TEST(SchedReplay, LigenWithAndWithoutARemainderBatchMatchesFreshRuns) {
  const std::vector<std::pair<int, bool>> shapes = {
      {64, true}, {4096, false}, {8192, false}, {5000, true}};
  std::vector<TimedJob> jobs;
  for (const auto& [ligands, remainder] : shapes) {
    const auto launches = serve::make_workload(ligen_job(0, 1, ligands).spec)
                              ->kernel_launches();
    const bool has_remainder =
        std::any_of(launches.begin(), launches.end(),
                    [](const core::KernelLaunch& l) {
                      return l.work_items < 4096;
                    });
    ASSERT_EQ(has_remainder, remainder) << ligands;
    for (const double slack : {1.0, 4.0, 40.0}) {
      jobs.push_back(
          ligen_job(0.05 * static_cast<double>(jobs.size()), slack, ligands));
    }
  }
  for (const DeviceCase& device : devices()) {
    for (const FrequencyPolicy policy :
         {FrequencyPolicy::kModel, FrequencyPolicy::kStaticDefault}) {
      SchedConfig config;
      config.device = device.name;
      config.frequency = policy;
      config.freq_stride = 2;
      for (const std::size_t threads : {1u, 8u}) {
        celerity::Cluster cluster = make_cluster(device.spec);
        const auto outcomes = run_scheduler(cluster, config, jobs, threads);
        EXPECT_EQ(expect_replays_match(cluster, config, jobs, outcomes,
                                       std::string(device.name) + " ligen"),
                  jobs.size());
      }
    }
  }
}

// sim.launches counts what the replaced runs would have launched: one
// reference run per distinct input plus one replica run per executed job.
// Filling the cost memo launches nothing; rejected jobs launch nothing.
TEST(SchedReplay, SimLaunchesCountReferenceAndReplicaLaunchesOnly) {
  std::vector<TimedJob> jobs = mixed_stream();
  jobs.push_back(cronos_job(0.2, 0.5, 16, 2)); // infeasible: rejected
  SchedConfig config;
  config.fallback = sched::Fallback::kReject;
  config.freq_stride = 2;

  const auto count_sim_launches = [] {
    for (const auto& counter :
         metrics::Registry::global().snapshot().counters) {
      if (counter.name == std::string_view("sim.launches")) {
        return counter.total;
      }
    }
    return std::uint64_t{0};
  };

  celerity::Cluster cluster = make_cluster(sim::v100());
  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const auto outcomes = run_scheduler(cluster, config, jobs, 2);
  const std::uint64_t counted = count_sim_launches();
  metrics::set_enabled(was_enabled);
  metrics::Registry::global().clear();

  std::uint64_t expected = 0;
  std::vector<const TimedJob*> inputs;
  std::size_t rejected = 0;
  JobOutcome on_rank0;
  on_rank0.rank = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto launches = [&] {
      return static_cast<std::uint64_t>(
          fresh_run(cluster, config.seed, i, on_rank0, jobs[i].spec).launches);
    };
    const bool seen = std::any_of(
        inputs.begin(), inputs.end(), [&](const TimedJob* input) {
          return input->spec == jobs[i].spec &&
                 input->request.features == jobs[i].request.features;
        });
    if (!seen) {
      inputs.push_back(&jobs[i]);
      expected += launches(); // the input's reference run
    }
    if (outcomes[i].rejected) {
      ++rejected;
    } else {
      expected += launches(); // the job's replica run
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(counted, expected);
}

// A reading the noise drives negative is still a garbage read: with a
// sigma of 1 the 4-sigma clamp lets a launch's factor fall below zero,
// and the run raises like the queue does.
TEST(SchedReplay, NegativeReadingsStillRaiseAnEnergyReadFault) {
  const std::vector<TimedJob> jobs = mixed_stream();
  SchedConfig config;
  config.frequency = FrequencyPolicy::kStaticDefault;
  celerity::Cluster cluster = make_cluster(sim::v100(), {1.0, 1.0});
  try {
    (void)run_scheduler(cluster, config, jobs, 1);
    ADD_FAILURE() << "negative readings accepted";
  } catch (const sim::TransientFault& fault) {
    EXPECT_EQ(fault.kind(), sim::FaultKind::kEnergyRead);
  }
}

} // namespace
