// Cluster scheduler demo: schedule a deadline-tagged job stream (LiGen
// screens + Cronos runs) over a simulated multi-rank cluster and compare
// the model-driven frequency policy against the naive baselines.
//
// For each --margins entry the model policy runs once (higher margins
// hedge against model optimism: fewer deadline misses, more energy), then
// the max-clock and static-governor baselines run on the same trace. The
// summary table reports cluster energy, deadline misses, and makespan per
// policy, marks the (energy, misses) Pareto front, and states whether a
// model-driven point dominates the max-clock baseline — the paper's
// cluster-level payoff: model knowledge converts directly into energy
// saved at equal or better deadline compliance.
//
// Models are trained in process on a compact sweep by default (seconds);
// pass --full-train for the full training grids or --model-in to load
// "dsem-model-v1" artifacts. --fault-rate arms fault injection on the
// cluster ranks, which the max-clock baseline surfaces as clock
// rejections (rejected ranks run, and are accounted, at their real
// clock). --ledger-out records the first --margins model run only, so the
// file holds one run's jobs, each id once.
#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/pareto.hpp"
#include "core/sweep_report.hpp"
#include "obs/session.hpp"
#include "sched/scheduler.hpp"
#include "serve/train.hpp"

namespace {

using namespace dsem;

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

std::vector<double> split_doubles(const std::string& list) {
  std::vector<double> out;
  for (const std::string& item : split_list(list)) {
    out.push_back(std::stod(item));
  }
  return out;
}

struct PolicyResult {
  std::string name;
  sched::SchedStats stats;
};

} // namespace

int main(int argc, char** argv) {
  CliParser cli("cluster_scheduler",
                "schedule a deadline-tagged job stream across a simulated "
                "cluster and compare frequency policies");
  cli.add_option("jobs", "number of jobs in the trace", "2000");
  cli.add_option("nodes", "cluster ranks", "4");
  cli.add_option("arrival-rate", "mean job arrival rate, jobs/s", "4");
  cli.add_option("ligen-fraction", "fraction of ligen jobs", "0.5");
  cli.add_option("population", "distinct inputs per app", "64");
  cli.add_option("traffic-seed", "trace RNG seed", "0x5EedF00d");
  cli.add_option("slacks",
                 "deadline slack multipliers sampled per job "
                 "(comma-separated, relative to the unloaded default-clock "
                 "runtime)",
                 "1.5,2,3,4");
  cli.add_option("margins",
                 "model-policy safety margins on predicted time, one "
                 "scheduler run each (comma-separated)",
                 "1,1.5,3");
  cli.add_option("device", "v100 | mi100", "v100");
  cli.add_option("freq-stride",
                 "plan over every n-th schedule frequency (max always "
                 "kept)",
                 "4");
  cli.add_option("placement", "first-fit | energy-greedy", "first-fit");
  cli.add_option("fallback",
                 "when no clock meets the deadline: run-at-max | reject",
                 "run-at-max");
  cli.add_option("model-in",
                 "comma-separated dsem-model-v1 artifacts to load "
                 "(skips training for their (app, device) keys)",
                 "");
  cli.add_flag("full-train",
               "train on the full grids instead of the compact sweep");
  core::add_fault_cli_options(cli);
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);
  // The job trace's config, the cluster size and the planning stride are
  // read first, so a bad size flag fails before any training sweep runs.
  serve::TrafficConfig traffic;
  traffic.requests = cli.option_size("jobs");
  traffic.arrival_rate_hz = cli.option_double("arrival-rate");
  traffic.ligen_fraction = cli.option_double("ligen-fraction");
  traffic.population = cli.option_size("population");
  traffic.seed = std::stoull(cli.option("traffic-seed"), nullptr, 0);
  traffic.deadline_slacks = split_doubles(cli.option("slacks"));
  const std::size_t freq_stride = cli.option_size("freq-stride");
  celerity::ClusterConfig cluster_config;
  cluster_config.nodes = cli.option_int32("nodes");

  const std::string device_name = cli.option("device");
  const sim::DeviceSpec spec =
      device_name == "mi100" ? sim::mi100() : sim::v100();

  // Models: load what was given, train the rest on a clean device.
  serve::ModelRegistry registry;
  for (const std::string& path : split_list(cli.option("model-in"))) {
    serve::ModelArtifact artifact = serve::ModelArtifact::load_file(path);
    DSEM_ENSURE(artifact.key.device == device_name,
                "artifact " + path + " was trained for device \"" +
                    artifact.key.device + "\", not \"" + device_name + "\"");
    std::cout << "loaded " << artifact.key.to_string() << " from " << path
              << "\n";
    registry.put(std::move(artifact));
  }
  core::SweepReport report;
  std::vector<std::string> apps;
  if (traffic.ligen_fraction < 1.0) {
    apps.push_back("cronos");
  }
  if (traffic.ligen_fraction > 0.0) {
    apps.push_back("ligen");
  }
  for (const std::string& app : apps) {
    const serve::ModelKey key{app, device_name};
    if (registry.get(key) != nullptr) {
      continue;
    }
    sim::Device train_dev(spec, sim::NoiseConfig{}, 0xAD51);
    synergy::Device train_synergy(train_dev);
    serve::TrainConfig train;
    train.compact = !cli.flag("full-train");
    if (train.compact) {
      train.freq_stride = 8;
      train.sweep.repetitions = 2;
    }
    train.sweep.report = &report;
    train.origin = "cluster_scheduler";
    std::cout << "training " << key.to_string() << " ("
              << (train.compact ? "compact" : "full") << " sweep)...\n";
    registry.put(serve::train_domain_specific(train_synergy, key, train));
  }

  // The deadline-tagged job trace.
  std::cout << "generating " << traffic.requests << " jobs ("
            << fmt_percent(traffic.ligen_fraction) << " ligen, "
            << fmt_g(traffic.arrival_rate_hz, 3) << " jobs/s)...\n";
  const auto jobs = serve::generate_job_trace(traffic);

  // One cluster for all policies; --fault-rate arms its ranks.
  celerity::Cluster cluster(spec, cluster_config);
  const sim::FaultConfig faults = core::fault_config_from_cli(cli);
  for (int rank = 0; rank < cluster.size(); ++rank) {
    cluster.device(rank).simulated().set_fault_config(faults);
  }

  sched::SchedConfig base;
  base.device = device_name;
  base.freq_stride = freq_stride;
  const std::string placement = cli.option("placement");
  DSEM_ENSURE(placement == "first-fit" || placement == "energy-greedy",
              "unknown placement: " + placement);
  base.placement = placement == "energy-greedy"
                       ? sched::Placement::kEnergyGreedy
                       : sched::Placement::kFirstFit;
  const std::string fallback = cli.option("fallback");
  DSEM_ENSURE(fallback == "run-at-max" || fallback == "reject",
              "unknown fallback: " + fallback);
  base.fallback = fallback == "reject" ? sched::Fallback::kReject
                                       : sched::Fallback::kRunAtMax;

  std::vector<PolicyResult> results;
  const auto run_policy = [&](const std::string& name,
                              const sched::SchedConfig& config) {
    std::cout << "scheduling under " << name << "...\n";
    if (config.ledger != nullptr) {
      std::cout << "  (this run's jobs go to the --ledger-out ledger)\n";
    }
    sched::ClusterScheduler scheduler(cluster, registry, config);
    scheduler.run(jobs);
    results.push_back({name, scheduler.stats()});
  };
  for (const double margin : split_doubles(cli.option("margins"))) {
    sched::SchedConfig config = base;
    config.frequency = sched::FrequencyPolicy::kModel;
    config.margin = margin;
    if (results.empty()) {
      config.ledger = session.ledger();
    }
    run_policy("model m=" + fmt_g(margin, 3), config);
  }
  sched::SchedConfig max_clock = base;
  max_clock.frequency = sched::FrequencyPolicy::kMaxClock;
  run_policy("max-clock", max_clock);
  sched::SchedConfig static_default = base;
  static_default.frequency = sched::FrequencyPolicy::kStaticDefault;
  run_policy("static-default", static_default);

  // The (energy, misses) Pareto front, both minimized. pareto_front's
  // convention is (maximize, minimize), so negated misses take the
  // maximize slot and energy the minimize slot.
  std::vector<double> neg_misses;
  std::vector<double> energy;
  for (const PolicyResult& result : results) {
    neg_misses.push_back(-static_cast<double>(result.stats.misses));
    energy.push_back(result.stats.energy_j);
  }
  const std::vector<std::size_t> front =
      core::pareto_front(neg_misses, energy);
  const auto on_front = [&](std::size_t i) {
    return std::find(front.begin(), front.end(), i) != front.end();
  };

  print_banner(std::cout, "policy comparison (" +
                              std::to_string(jobs.size()) + " jobs, " +
                              std::to_string(cluster.size()) + " ranks)");
  Table table({"policy", "energy [J]", "misses", "miss rate", "rejected",
               "infeasible", "clock rej", "makespan [s]", "pareto"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sched::SchedStats& stats = results[i].stats;
    table.add_row({results[i].name, fmt(stats.energy_j, 1),
                   fmt(stats.misses), fmt_percent(stats.miss_rate()),
                   fmt(stats.rejected), fmt(stats.infeasible),
                   fmt(stats.clock_rejections), fmt(stats.makespan_s, 2),
                   on_front(i) ? "*" : ""});
  }
  table.print(std::cout);

  const sched::SchedStats& baseline = results[results.size() - 2].stats;
  bool dominates = false;
  double best_saving = 0.0;
  for (const PolicyResult& result : results) {
    if (result.name.rfind("model", 0) == 0 &&
        result.stats.energy_j < baseline.energy_j &&
        result.stats.misses <= baseline.misses) {
      dominates = true;
      best_saving = std::max(
          best_saving, 1.0 - result.stats.energy_j / baseline.energy_j);
    }
  }
  std::cout << "\nmodel dominates max-clock: " << (dominates ? "yes" : "no");
  if (dominates) {
    std::cout << " (" << fmt_percent(best_saving)
              << " cluster energy saved at equal or fewer misses)";
  }
  std::cout << "\n";

  session.finish(std::cout, "cluster_scheduler",
                 core::sweep_report_to_json(report));
  return 0;
}
