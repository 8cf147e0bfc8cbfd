// Recovery accounting for resilient sweeps.
//
// A sweep over a faulty device (sim::FaultInjector) degrades gracefully:
// grid points that exhaust their RetryPolicy are recorded as failed, not
// fatal. The SweepReport collects what that resilience cost — attempts,
// retries, simulated backoff, the failed points themselves — plus
// per-phase wall time, so an example or bench program can print one
// summary at the end of a pipeline.
//
// Determinism: every counter except the phase wall times is a pure
// function of the device seed and the grid — safe to compare across
// DSEM_THREADS settings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/measurement.hpp"
#include "sim/fault.hpp"

namespace dsem {
class CliParser;
} // namespace dsem

namespace dsem::core {

/// One grid point that exhausted its retries.
struct FailedPoint {
  std::size_t task = 0;       ///< task (workload) index within its sweep
  double freq_mhz = 0.0;      ///< swept frequency; default clock if baseline
  bool baseline = false;      ///< true for the default-clock point
  std::uint64_t attempts = 0; ///< attempts spent before giving up
  std::string error;

  bool operator==(const FailedPoint&) const = default;
};

/// Aggregated over every sweep that ran with SweepOptions::report set.
struct SweepReport {
  std::uint64_t grid_points = 0;   ///< points attempted
  std::uint64_t failed_points = 0; ///< points that exhausted retries
  RetryStats retry;                ///< attempts / retries / faults / backoff
  std::vector<FailedPoint> failures; ///< grid order within each sweep

  struct Phase {
    std::string name;
    double seconds = 0.0; ///< wall time; report-only
  };
  std::vector<Phase> phases;

  void add_phase(std::string name, double seconds);
};

/// Human-readable multi-line summary.
void print_sweep_report(std::ostream& os, const SweepReport& report);

/// Serializes every field of the report (including the report-only phase
/// wall times — consumers filter by the determinism notes above when
/// comparing runs).
json::Value sweep_report_to_json(const SweepReport& report);

/// Registers the shared fault/retry knobs on an example or bench CLI:
/// --fault-rate, --fault-set-freq-rate, --fault-energy-drop-rate,
/// --fault-energy-garbage-rate, --fault-launch-rate, --retry-attempts,
/// --retry-backoff-s.
void add_fault_cli_options(CliParser& cli);

/// Builds the fault schedule the flags describe. --fault-rate seeds every
/// rate via FaultConfig::uniform; the per-kind flags then override.
sim::FaultConfig fault_config_from_cli(const CliParser& cli);

RetryPolicy retry_policy_from_cli(const CliParser& cli);

} // namespace dsem::core
