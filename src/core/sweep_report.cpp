#include "core/sweep_report.hpp"

#include <ostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dsem::core {

void SweepReport::add_phase(std::string name, double seconds) {
  // Phase wall-times feed the metrics registry as wall-clock gauges, so
  // the report and the registry cannot disagree.
  if (metrics::enabled()) {
    metrics::gauge("phase." + name + "_s", seconds,
                   metrics::Reliability::kWallClock);
  }
  phases.push_back({std::move(name), seconds});
}

void print_sweep_report(std::ostream& os, const SweepReport& report) {
  os << "sweep report\n"
     << "  grid points:       " << report.grid_points << " ("
     << report.failed_points << " failed)\n"
     << "  attempts:          " << report.retry.attempts << " ("
     << report.retry.retries << " retries, " << report.retry.faults
     << " faults)\n"
     << "  simulated backoff: " << report.retry.simulated_backoff_s << " s\n";
  for (const FailedPoint& f : report.failures) {
    os << "  failed: task " << f.task << " @ "
       << (f.baseline ? "default clock" : std::to_string(f.freq_mhz) + " MHz")
       << " after " << f.attempts << " attempts: " << f.error << "\n";
  }
  for (const SweepReport::Phase& phase : report.phases) {
    os << "  phase " << phase.name << ": " << phase.seconds << " s\n";
  }
}

json::Value sweep_report_to_json(const SweepReport& report) {
  auto root = json::Value::object();
  root.set("grid_points", report.grid_points);
  root.set("failed_points", report.failed_points);

  auto retry = json::Value::object();
  retry.set("attempts", report.retry.attempts);
  retry.set("retries", report.retry.retries);
  retry.set("faults", report.retry.faults);
  retry.set("simulated_backoff_s", report.retry.simulated_backoff_s);
  root.set("retry", std::move(retry));

  auto failures = json::Value::array();
  for (const FailedPoint& f : report.failures) {
    auto failure = json::Value::object();
    failure.set("task", f.task);
    failure.set("freq_mhz", f.freq_mhz);
    failure.set("baseline", f.baseline);
    failure.set("attempts", f.attempts);
    failure.set("error", f.error);
    failures.push_back(std::move(failure));
  }
  root.set("failures", std::move(failures));

  auto phases = json::Value::array();
  for (const SweepReport::Phase& phase : report.phases) {
    auto p = json::Value::object();
    p.set("name", phase.name);
    p.set("seconds", phase.seconds);
    phases.push_back(std::move(p));
  }
  root.set("phases", std::move(phases));
  return root;
}

void add_fault_cli_options(CliParser& cli) {
  cli.add_option("fault-rate", "uniform transient-fault rate (0 disables)",
                 "0");
  cli.add_option("fault-set-freq-rate",
                 "set_frequency rejection rate (-1 = from --fault-rate)",
                 "-1");
  cli.add_option("fault-energy-drop-rate",
                 "dropped energy-read rate (-1 = from --fault-rate)", "-1");
  cli.add_option("fault-energy-garbage-rate",
                 "garbage energy-read rate (-1 = from --fault-rate)", "-1");
  cli.add_option("fault-launch-rate",
                 "kernel-launch abort rate (-1 = from --fault-rate)", "-1");
  cli.add_option("retry-attempts", "max attempts per faulting operation",
                 "3");
  cli.add_option("retry-backoff-s", "simulated backoff before first retry",
                 "0.01");
}

sim::FaultConfig fault_config_from_cli(const CliParser& cli) {
  const double master = cli.option_double("fault-rate");
  DSEM_ENSURE(master >= 0.0 && master <= 1.0,
              "--fault-rate must be a probability in [0, 1]");
  sim::FaultConfig config = sim::FaultConfig::uniform(master);
  const auto override_rate = [&](const char* name, double& rate) {
    const double value = cli.option_double(name);
    if (value >= 0.0) {
      DSEM_ENSURE(value <= 1.0, std::string("--") + name +
                                    " must be a probability in [0, 1]");
      rate = value;
    }
  };
  override_rate("fault-set-freq-rate", config.set_frequency_rate);
  override_rate("fault-energy-drop-rate", config.energy_read_drop_rate);
  override_rate("fault-energy-garbage-rate", config.energy_read_garbage_rate);
  override_rate("fault-launch-rate", config.launch_rate);
  return config;
}

RetryPolicy retry_policy_from_cli(const CliParser& cli) {
  RetryPolicy policy;
  policy.max_attempts = cli.option_int32("retry-attempts");
  policy.backoff_base_s = cli.option_double("retry-backoff-s");
  DSEM_ENSURE(policy.max_attempts >= 1, "--retry-attempts must be >= 1");
  DSEM_ENSURE(policy.backoff_base_s >= 0.0,
              "--retry-backoff-s must be >= 0");
  return policy;
}

} // namespace dsem::core
