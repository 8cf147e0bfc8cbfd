// Deterministic parallel sweep engine.
//
// Every experiment in the paper walks the same grid: (workload/run) x
// (default clock + each frequency) x repetitions. This engine runs that
// grid on the process pool with results that are bit-identical for ANY
// pool size, including 1:
//
//  - Each grid point runs on its own replica of the simulated device,
//    seeded as derive_seed(base_seed, flat_index). The noise stream a
//    point observes therefore depends only on its grid coordinates, never
//    on scheduling order or thread count.
//  - Results are written into pre-sized disjoint slots, so the output
//    layout is fixed before any task runs.
//  - The shared base device is never touched: its RNG does not advance,
//    and concurrent points cannot race on it.
//
// Grid points, and every parallel region nested inside one, run on
// ThreadPool::global(), sized by the DSEM_THREADS environment variable
// (DSEM_THREADS=1 reproduces serial execution exactly).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/measurement.hpp"

namespace dsem::core {

struct SweepReport;

struct SweepOptions {
  int repetitions = kDefaultRepetitions;
  /// Bounded-retry recovery for transient device faults. A grid point
  /// that exhausts its attempts is recorded as failed (SweepPoint::ok ==
  /// false), never aborts the sweep.
  RetryPolicy retry;
  /// Recovery accounting sink, accumulated across sweeps (nullptr
  /// disables). See core/sweep_report.hpp for which fields are
  /// deterministic.
  SweepReport* report = nullptr;
};

/// One cell of the task axis: a callable that submits one full
/// application run into the queue it is given.
struct SweepTask {
  RunFn run;
};

/// Result for one task: its default-clock baseline plus one point per
/// swept frequency (same order as the `freqs` argument). Points that
/// exhausted their retries carry ok == false with zeroed measurements;
/// a failed baseline poisons the task's normalizations but leaves the
/// swept points usable.
struct FrequencySweep {
  Measurement baseline;
  double default_freq_mhz = 0.0;
  bool baseline_ok = true;
  std::uint64_t baseline_attempts = 0;
  std::string baseline_error;
  std::vector<SweepPoint> points;
};

/// Measures every task at the default clock and at every frequency in
/// `freqs` (all supported frequencies when empty). The (task x frequency)
/// grid is flattened and executed in parallel; see the file comment for
/// the determinism contract.
std::vector<FrequencySweep> sweep_grid(synergy::Device& device,
                                       std::span<const SweepTask> tasks,
                                       std::span<const double> freqs,
                                       const SweepOptions& options = {});

/// sweep_grid for a single workload.
FrequencySweep sweep_workload(synergy::Device& device,
                              const Workload& workload,
                              std::span<const double> freqs = {},
                              const SweepOptions& options = {});

/// sweep_grid over a workload list (one FrequencySweep per workload, in
/// input order).
std::vector<FrequencySweep> sweep_workloads(
    synergy::Device& device,
    std::span<const std::unique_ptr<Workload>> workloads,
    std::span<const double> freqs = {}, const SweepOptions& options = {});

/// Every `stride`-th value from the first: the strided frequency grid a
/// sweep samples when it trains on "a part of" the schedule (§4.2.2).
/// `stride` must be >= 1.
std::vector<double> every_nth(std::span<const double> values,
                              std::size_t stride);

} // namespace dsem::core
