// Cluster-scheduler performance benchmarks: the full deadline-aware
// scheduling pipeline over a 10^4-job deadline-tagged trace, plus the
// precompute-free baseline path.
//
// BM_ScheduleStream exports the deterministic simulated outcomes as user
// counters ending in _ns — perf_report lifts those into standalone,
// gated BENCH entries (perf_sched/BM_ScheduleStream:p50_turnaround_ns,
// ...), so scheduling-quality drift fails the perf gate exactly like a
// wall-clock regression. Wall time lives in the benchmark's real_time.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/statistics.hpp"
#include "sched/scheduler.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace {

using namespace dsem;

/// Trained once per process: both applications on the simulated V100,
/// the example's full training grids at 2 repetitions.
const serve::ModelRegistry& shared_registry() {
  static serve::ModelRegistry* registry = [] {
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig{}, 0xAD51);
    synergy::Device device(sim_dev);
    serve::TrainConfig config;
    config.sweep.repetitions = 2;
    config.origin = "perf_sched";
    auto* r = new serve::ModelRegistry;
    r->put(serve::train_domain_specific(device, {"cronos", "v100"}, config));
    r->put(serve::train_domain_specific(device, {"ligen", "v100"}, config));
    return r;
  }();
  return *registry;
}

const std::vector<serve::TimedJob>& shared_trace() {
  static const std::vector<serve::TimedJob> trace = [] {
    serve::TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 4.0;
    traffic.population = 64;
    traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
    return serve::generate_job_trace(traffic);
  }();
  return trace;
}

/// Deterministic p50/p99 over the completed jobs' turnaround times.
void turnaround_counters(benchmark::State& state,
                         const std::vector<sched::JobOutcome>& outcomes,
                         const std::vector<serve::TimedJob>& jobs) {
  std::vector<double> turnaround;
  turnaround.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].rejected) {
      turnaround.push_back(outcomes[i].finish_s - jobs[i].arrival_s);
    }
  }
  const auto at = [&](double q) {
    return turnaround.empty() ? 0.0 : stats::quantile(turnaround, q);
  };
  state.counters["p50_turnaround_ns"] = at(0.50) * 1e9;
  state.counters["p99_turnaround_ns"] = at(0.99) * 1e9;
}

void BM_ScheduleStream(benchmark::State& state) {
  const auto& registry = shared_registry();
  const auto& jobs = shared_trace();
  std::vector<sched::JobOutcome> outcomes;
  sched::SchedStats stats;
  for (auto _ : state) {
    celerity::ClusterConfig cluster_config;
    cluster_config.nodes = 4;
    celerity::Cluster cluster(sim::v100(), cluster_config);
    sched::SchedConfig config;
    config.frequency = sched::FrequencyPolicy::kModel;
    config.margin = 3.0;
    sched::ClusterScheduler scheduler(cluster, registry, config);
    outcomes = scheduler.run(jobs);
    benchmark::DoNotOptimize(outcomes);
    stats = scheduler.stats();
  }
  turnaround_counters(state, outcomes, jobs);
  state.counters["cluster_energy_j"] = stats.energy_j;
  state.counters["misses"] = static_cast<double>(stats.misses);
  state.counters["infeasible"] = static_cast<double>(stats.infeasible);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_ScheduleStream)->Unit(benchmark::kMillisecond);

/// The baseline path: no predictions, no precompute beyond deadlines —
/// isolates the placement/execution loop from model inference.
void BM_ScheduleMaxClock(benchmark::State& state) {
  const auto& registry = shared_registry();
  const auto& jobs = shared_trace();
  for (auto _ : state) {
    celerity::ClusterConfig cluster_config;
    cluster_config.nodes = 4;
    celerity::Cluster cluster(sim::v100(), cluster_config);
    sched::SchedConfig config;
    config.frequency = sched::FrequencyPolicy::kMaxClock;
    sched::ClusterScheduler scheduler(cluster, registry, config);
    benchmark::DoNotOptimize(scheduler.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_ScheduleMaxClock)->Unit(benchmark::kMillisecond);

/// Deadline-tagged trace generation alone (features + slack sampling).
void BM_GenerateJobTrace(benchmark::State& state) {
  serve::TrafficConfig traffic;
  traffic.requests = 10000;
  traffic.arrival_rate_hz = 4.0;
  traffic.population = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::generate_job_trace(traffic));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_GenerateJobTrace)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
