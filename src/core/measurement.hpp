// Time/energy measurement of workloads over frequency configurations.
//
// Mirrors the paper's experimental setup (§5.1): each configuration is
// executed and profiled through the SYnergy layer, repeated `repetitions`
// times (5 in the paper) and averaged to damp measurement noise.
//
// Fault tolerance: every entry point absorbs transient device faults
// (sim::TransientFault — rejected frequency sets, aborted launches,
// garbage energy reads) by retrying under a bounded RetryPolicy with
// *simulated* backoff (accounted, never slept — results stay a pure
// function of the device seed). An operation that exhausts its retries
// throws MeasurementError; the sweep engine above turns that into a
// failed-grid-point record instead of aborting the sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "synergy/device.hpp"

namespace dsem::core {

struct Measurement {
  double time_s = 0.0;
  double energy_j = 0.0;

  bool operator==(const Measurement&) const = default;
};

inline constexpr int kDefaultRepetitions = 5;

/// Bounded-retry recovery for transient device faults. Backoff is
/// simulated: the wait a real harness would sleep is accumulated in
/// RetryStats::simulated_backoff_s, keeping runs deterministic and fast.
struct RetryPolicy {
  int max_attempts = 3;         ///< first try + retries, per operation
  double backoff_base_s = 0.01; ///< simulated wait before the 1st retry
  double backoff_factor = 2.0;  ///< exponential growth per further retry

  /// Simulated wait after failed attempt number `attempt` (1-based).
  double backoff_for(int attempt) const noexcept {
    double wait = backoff_base_s;
    for (int i = 1; i < attempt; ++i) {
      wait *= backoff_factor;
    }
    return wait;
  }
};

/// Per-operation recovery accounting, aggregated by the sweep engine.
struct RetryStats {
  std::uint64_t attempts = 0; ///< operation attempts, including retries
  std::uint64_t retries = 0;  ///< attempts beyond the first
  std::uint64_t faults = 0;   ///< transient faults observed
  double simulated_backoff_s = 0.0;

  void merge(const RetryStats& other) noexcept {
    attempts += other.attempts;
    retries += other.retries;
    faults += other.faults;
    simulated_backoff_s += other.simulated_backoff_s;
  }
};

/// Thrown when an operation keeps faulting past RetryPolicy::max_attempts.
class MeasurementError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Pins the device clock, retrying rejected requests per `policy`.
/// Throws MeasurementError on exhaustion.
void set_frequency_with_retry(synergy::Device& device, double freq_mhz,
                              const RetryPolicy& policy = {},
                              RetryStats* stats = nullptr);

/// One application run as the measurement layer sees it: submits the full
/// kernel sequence into the queue exactly once.
using RunFn = std::function<void(synergy::Queue&)>;

/// Runs `run` at the device's current clocking, averaging `repetitions`
/// executions. The building block of every measurement below. Each
/// repetition retries per `retry` on transient faults or invalid totals;
/// throws MeasurementError when a repetition exhausts its attempts.
Measurement measure_run(synergy::Device& device, const RunFn& run,
                        int repetitions = kDefaultRepetitions,
                        const RetryPolicy& retry = {},
                        RetryStats* stats = nullptr);

/// Runs `workload` with the core clock pinned at `freq_mhz`, averaging
/// `repetitions` runs. Restores the device default clock afterwards.
Measurement measure(synergy::Device& device, const Workload& workload,
                    double freq_mhz, int repetitions = kDefaultRepetitions,
                    const RetryPolicy& retry = {},
                    RetryStats* stats = nullptr);

/// Same, at the device's default/auto clocking.
Measurement measure_default(synergy::Device& device, const Workload& workload,
                            int repetitions = kDefaultRepetitions,
                            const RetryPolicy& retry = {},
                            RetryStats* stats = nullptr);

struct SweepPoint {
  double freq_mhz = 0.0;
  Measurement m;
  bool ok = true;             ///< false when retries were exhausted
  std::uint64_t attempts = 0; ///< measurement attempts, incl. retries
  std::string error;          ///< failure reason when !ok

  bool operator==(const SweepPoint&) const = default;
};

/// Measures the workload at every frequency in `freqs` (all supported
/// frequencies when empty), plus nothing else — callers pair this with
/// measure_default for baselines. Runs through the deterministic parallel
/// sweep engine (core/sweep.hpp) on the global thread pool.
std::vector<SweepPoint> sweep_frequencies(
    synergy::Device& device, const Workload& workload,
    int repetitions = kDefaultRepetitions, std::span<const double> freqs = {});

} // namespace dsem::core
