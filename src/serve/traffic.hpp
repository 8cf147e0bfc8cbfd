// Deterministic synthetic request traffic for the serving loop.
//
// Generates a Poisson-arrival stream of AdviseRequests drawn from finite
// LiGen / Cronos input populations, entirely from a seeded RNG: the same
// TrafficConfig always yields the same trace, byte for byte, which is
// what makes the serving benchmarks and golden determinism tests
// reproducible. Feature vectors come from the real Workload classes
// (core/workload.hpp), so traced inputs are exactly what training saw.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/workload.hpp"
#include "serve/advisor.hpp"

namespace dsem::serve {

/// One request stamped with its (simulated) arrival time.
struct TimedRequest {
  double arrival_s = 0.0;
  AdviseRequest request;

  bool operator==(const TimedRequest&) const = default;
};

/// Concrete workload parameters behind one sampled input — enough to
/// rebuild the core::Workload, not just its feature vector. The job
/// trace carries these so the cluster scheduler can *execute* a job, not
/// only ask the model about it.
struct WorkloadSpec {
  std::string application; ///< "cronos" | "ligen"
  // Cronos: grid dims and step count.
  cronos::GridDims dims{};
  int steps = 10;
  // LiGen: screening shape.
  int ligands = 0;
  int atoms = 0;
  int fragments = 0;

  bool operator==(const WorkloadSpec&) const = default;
  auto operator<=>(const WorkloadSpec&) const = default;
};

/// Instantiates the workload a spec describes.
std::unique_ptr<core::Workload> make_workload(const WorkloadSpec& spec);

/// One schedulable job: a timed request plus its workload spec and a
/// sampled deadline slack. The scheduler turns the slack into an absolute
/// deadline: arrival_s + slack * (reference runtime at the default
/// clock), so slack 1.5 means "50% headroom over an unloaded rank".
struct TimedJob {
  double arrival_s = 0.0;
  double deadline_slack = 1.0;
  WorkloadSpec spec;
  AdviseRequest request;

  bool operator==(const TimedJob&) const = default;
};

struct TrafficConfig {
  std::size_t requests = 100000;
  /// Mean Poisson arrival rate (exponential interarrival times).
  double arrival_rate_hz = 2000.0;
  /// Fraction of requests targeting LiGen; the rest target Cronos.
  double ligen_fraction = 0.5;
  /// Distinct inputs per application. The trace samples uniformly from
  /// this population, so it bounds the number of distinct cache keys.
  std::size_t population = 512;
  std::uint64_t seed = 0x5EedF00dULL;
  /// Slowdown budgets sampled uniformly per request.
  std::vector<double> slowdown_budgets = {0.01, 0.03, 0.05, 0.10};
  /// Deadline slack multipliers sampled uniformly per *job* (job traces
  /// only). Drawn from an independent seed stream, so request traces and
  /// job traces of the same config share arrivals and inputs byte for
  /// byte.
  std::vector<double> deadline_slacks = {1.25, 1.5, 2.0, 3.0};
};

/// Builds the request trace for `config`. Pure function of the config.
std::vector<TimedRequest> generate_trace(const TrafficConfig& config);

/// Builds the job trace for `config`: the same arrivals, inputs, and
/// budgets as generate_trace (same seed streams), each carrying its
/// workload spec and a deadline slack sampled from `deadline_slacks`.
std::vector<TimedJob> generate_job_trace(const TrafficConfig& config);

} // namespace dsem::serve
