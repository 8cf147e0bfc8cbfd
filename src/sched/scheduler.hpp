// Deadline-aware cluster energy scheduler (ROADMAP item 2).
//
// Turns the domain-specific energy models into cluster-wide decisions, in
// the data-driven deadline-aware frequency-scaling direction of Ilager et
// al. (arXiv 2004.08177), over the Celerity-style cluster the paper uses
// for distributed Cronos (§6): a stream of heterogeneous jobs (LiGen
// screens, Cronos runs with varied grids and deadlines) is admitted in
// arrival order, placed on a rank, and — under the model-driven policy —
// run at the per-job core frequency the registered DS model predicts will
// meet the deadline at minimal energy. When no candidate frequency is
// feasible the scheduler falls back gracefully: run at the maximum
// candidate clock, or reject the job with a recorded deadline miss.
//
// The whole simulation runs in simulated time, like serve::ServeLoop, and
// is bit-identical for any DSEM_THREADS:
//  - Planning is batched up front, once per distinct job input (workload
//    spec plus features): one reference run and, under the model policy,
//    one predict_sweep over the candidate clocks, fanned across the
//    thread pool into pre-sized slots numbered by first appearance.
//  - Admission, placement, and clock selection run serially in arrival
//    order over those precomputed predictions.
//  - Each job executes as a replay of its input's launch sequence: the
//    noise-free launch costs at the job's clock, memoised per input and
//    clock within one run, measured under the noise stream of a replica
//    device seeded by the job's trace index alone — the same job costs
//    the same time and energy on any rank, under any policy, for any pool
//    size, bit for bit what running the workload on that replica reads.
// Jobs are rank-local (no cross-rank halo traffic): the cluster supplies
// the rank count, the device spec, and the broadcast clock control whose
// per-rank outcomes the baselines honor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "celerity/cluster.hpp"
#include "serve/registry.hpp"
#include "serve/traffic.hpp"

namespace dsem::obs {
class Ledger;
} // namespace dsem::obs

namespace dsem::sched {

/// Where a job goes.
enum class Placement {
  kFirstFit,     ///< the earliest-available rank (lowest rank on ties)
  kEnergyGreedy, ///< the (rank, frequency) pair of minimal predicted energy
};

/// How a job's core clock is chosen.
enum class FrequencyPolicy {
  kModel,         ///< DS-model pick: cheapest candidate meeting the deadline
  kMaxClock,      ///< naive baseline: every rank pinned to the maximum clock
  kStaticDefault, ///< static governor baseline: default clocking everywhere
};

/// What happens when no candidate frequency meets the deadline.
enum class Fallback {
  kRunAtMax, ///< run at the maximum candidate clock anyway
  kReject,   ///< drop the job, recording a deadline miss
};

struct SchedConfig {
  /// Device half of the model-registry key (the cluster's rank spec name
  /// need not match; the key routes to the trained artifact).
  std::string device = "v100";
  Placement placement = Placement::kFirstFit;
  FrequencyPolicy frequency = FrequencyPolicy::kModel;
  Fallback fallback = Fallback::kRunAtMax;
  /// Safety factor on predicted time when testing deadline feasibility:
  /// feasible iff start + margin * predicted_time <= deadline. Margins
  /// above 1 hedge against model optimism (fewer misses, more energy);
  /// below 1 gamble on it (the example sweeps this into a Pareto front).
  double margin = 1.0;
  /// Candidate clocks = every `freq_stride`-th artifact frequency (the
  /// maximum is always included). Stride 1 plans over the full grid.
  std::size_t freq_stride = 4;
  /// Base seed of the per-job execution noise streams (derived by index).
  std::uint64_t seed = 0x5C4EDULL;
  /// Attribution-ledger sink: every job of a run() is recorded here;
  /// null records nothing. Drivers pass obs::Session::ledger().
  obs::Ledger* ledger = nullptr;
};

/// One job's fate. All times are simulated seconds.
struct JobOutcome {
  bool rejected = false;   ///< dropped at admission (Fallback::kReject)
  bool infeasible = false; ///< no candidate clock met the deadline
  bool missed = false;     ///< rejected, or finished past the deadline
  int rank = -1;           ///< -1 when rejected
  double freq_mhz = 0.0;   ///< executed clock; 0 = default clocking
  double deadline_s = 0.0;
  double start_s = 0.0;
  double finish_s = 0.0;
  double true_time_s = 0.0;
  double true_energy_j = 0.0;
  /// Model-policy predictions at the chosen clock (0 for baselines):
  /// the model's speedup / normalized-energy shape over frequency,
  /// anchored at the job's noise-free default-clock reference run so
  /// absolute-scale prediction bias cancels per job.
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;

  bool operator==(const JobOutcome&) const = default;
};

/// Aggregates over one run() call. Everything except wall_s is simulated
/// and deterministic for any DSEM_THREADS.
struct SchedStats {
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t misses = 0;     ///< rejected + finished-late
  std::uint64_t infeasible = 0; ///< jobs that needed the fallback
  /// set_frequency_all rejections the baselines observed (those ranks run
  /// at their actual, reported clock — never the one the broadcast asked
  /// for).
  std::uint64_t clock_rejections = 0;
  double busy_energy_j = 0.0;
  double idle_energy_j = 0.0; ///< idle draw over rank gaps up to makespan
  double energy_j = 0.0;      ///< busy + idle
  double makespan_s = 0.0;    ///< last completion
  double wall_s = 0.0;        ///< wall-clock run time (report only)

  double miss_rate() const noexcept {
    return jobs > 0 ? static_cast<double>(misses) / static_cast<double>(jobs)
                    : 0.0;
  }
};

/// The model-policy clock pick, exposed for hand-computed tests: over
/// parallel arrays of candidate (predicted time, predicted energy) —
/// index-aligned, ascending frequency — returns the index of the lowest
/// predicted energy whose margin-scaled completion meets the deadline.
/// When nothing qualifies, `feasible` is false and the index is the last
/// (maximum-frequency) candidate: the run-at-max fallback.
struct FrequencyPick {
  std::size_t index = 0;
  bool feasible = false;

  bool operator==(const FrequencyPick&) const = default;
};
FrequencyPick pick_deadline_frequency(std::span<const double> time_s,
                                      std::span<const double> energy_j,
                                      double start_s, double deadline_s,
                                      double margin);

/// First-fit placement: the rank with the earliest free time (the lowest
/// rank wins ties).
int place_first_fit(std::span<const double> rank_free_s);

class ClusterScheduler {
public:
  /// The registry must hold a domain-specific or hybrid artifact under
  /// (application, config.device) for every application in the job
  /// stream when the model policy is active; the baselines never consult
  /// it. Both references must outlive the scheduler.
  ClusterScheduler(celerity::Cluster& cluster,
                   const serve::ModelRegistry& registry, SchedConfig config);

  /// Schedules `jobs` (ascending arrival_s) to completion. Outcomes are
  /// indexed by trace position. Stats are per call.
  std::vector<JobOutcome> run(std::span<const serve::TimedJob> jobs);

  const SchedStats& stats() const noexcept { return stats_; }

private:
  celerity::Cluster& cluster_;
  const serve::ModelRegistry& registry_;
  SchedConfig config_;
  SchedStats stats_;
};

} // namespace dsem::sched
