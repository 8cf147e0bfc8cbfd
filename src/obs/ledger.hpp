// End-to-end attribution ledger: per-request / per-job energy and
// latency accounting (DESIGN.md §7.14).
//
// The serve loop and the cluster scheduler report only aggregates
// (p50/p99, shed, misses, cluster energy); the ledger is the record
// layer underneath them — one entry per serve::ServeLoop request and one
// per sched::ClusterScheduler job, each with a stable id and the full
// attribution of where its latency and energy went: queue wait, cache
// hit/miss, service cost, chosen clock, predicted vs simulated-observed
// runtime/energy, deadline slack consumed, and a miss cause from the
// taxonomy below. The "dsem-ledger-v1" JSON export is the drill-down
// input of examples/dsem_inspect.
//
// Determinism contract (same discipline as trace/metrics, §7.8):
//  - Every recorded field is simulated time/energy or a pure function of
//    the trace — never wall clock. Records are appended by the serial
//    accounting phases of the serve loop and the scheduler, so record
//    order, every field, and the serialized document are bit-identical
//    for any DSEM_THREADS (LedgerDeterminism goldens, pools 1/2/8).
//  - Stable ids derive from the record's stream kind and trace index
//    alone: id = "<req|job>-" + 16 hex digits of
//    derive_seed(fnv1a64(kind), index). The same trace position gets the
//    same id under every policy, pool size, and run.
//  - A run with no ledger pays one null check per record site.
//
// Sink: a ledger is an ordinary object. The serve loop and the scheduler
// record into the one their config names (ServeConfig::ledger /
// SchedConfig::ledger) and record nothing when it is null. A driver's
// --ledger-out ledger is owned by its obs::Session, which hands it out as
// Session::ledger() and writes it at the end of the run; tests and
// dsem_bench pass their own.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/drift.hpp"
#include "obs/slo.hpp"

namespace dsem::obs {

inline constexpr const char* kLedgerSchema = "dsem-ledger-v1";

/// Why an entry missed its objective. One taxonomy for both streams:
/// requests only ever miss by being shed; jobs miss for one of three
/// attributable reasons, decided in this precedence order:
///  - kInfeasible: no candidate clock was *predicted* to meet the
///    deadline (the scheduler fell back to run-at-max or rejected).
///  - kModelError: the chosen clock was predicted feasible, and the job
///    would have missed even starting at arrival (true runtime alone
///    exceeds the deadline window) — the prediction was wrong.
///  - kPlacement: the job would have met its deadline starting at
///    arrival; queue wait on the chosen rank pushed it past — the
///    placement, not the model, caused the miss.
enum class MissCause : std::uint8_t {
  kNone,       ///< met its objective (or a request that was served)
  kShed,       ///< request dropped by admission control
  kInfeasible, ///< no predicted-feasible clock (fallback or rejection)
  kModelError, ///< predicted feasible, but the prediction was wrong
  kPlacement,  ///< feasible at arrival, late because of queue wait
};

const char* to_string(MissCause cause) noexcept;

/// One serve::ServeLoop request. All times are simulated seconds;
/// energy is the model's predicted joules for the advised answer (the
/// serve loop never executes the workload).
struct RequestRecord {
  std::uint64_t index = 0; ///< trace position
  std::string id;          ///< stable: see derive_record_id
  std::string application;
  std::string model; ///< "app/device@origin"; "" when shed
  double arrival_s = 0.0;
  double queue_wait_s = 0.0; ///< admission to service start (shed: to shed)
  double service_s = 0.0;    ///< hit or miss service cost; 0 when shed
  double completion_s = 0.0; ///< shed time for shed requests
  double latency_s = 0.0;    ///< completion - arrival
  bool cache_hit = false;
  bool shed = false;
  std::uint64_t batch = 0; ///< 1-based dispatch index; 0 when shed
  double freq_mhz = 0.0;   ///< advised clock; 0 when shed
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;
  double max_slowdown = 0.0;
  bool budget_infeasible = false;
  MissCause cause = MissCause::kNone; ///< kShed or kNone

  bool operator==(const RequestRecord&) const = default;
};

/// One sched::ClusterScheduler job. Predicted values are the model's
/// anchored estimates at the executed clock (0 for the baselines, which
/// never consult a model); true values come from the job's replica run.
struct JobRecord {
  std::uint64_t index = 0; ///< trace position
  std::string id;          ///< stable: see derive_record_id
  std::string application;
  std::string model; ///< "app/device@origin"; "" for the baselines
  int rank = -1;     ///< -1 when rejected
  double freq_mhz = 0.0;
  double arrival_s = 0.0;
  double start_s = 0.0;
  double finish_s = 0.0;
  double deadline_s = 0.0;
  double queue_wait_s = 0.0; ///< start - arrival
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;
  double true_time_s = 0.0;
  double true_energy_j = 0.0;
  /// Relative prediction residuals |predicted - true| / true; 0 when no
  /// model was consulted (these records are excluded from drift folds).
  double time_residual = 0.0;
  double energy_residual = 0.0;
  /// Fraction of the deadline window the job consumed:
  /// (finish - arrival) / (deadline - arrival). > 1 means missed.
  double slack_consumed = 0.0;
  bool infeasible = false;
  bool rejected = false;
  bool missed = false;
  MissCause cause = MissCause::kNone;

  bool operator==(const JobRecord&) const = default;
};

/// Stable record id: kind ("req" | "job") + "-" + 16 hex digits of
/// derive_seed(fnv1a64(kind), index). Pure function of its arguments.
std::string derive_record_id(const char* kind, std::uint64_t index);

struct LedgerConfig {
  std::string program; ///< provenance stamped into the document
  DriftConfig drift;
  /// Served-latency objective (requests: violation = shed or latency
  /// above latency_objective_s, budgeted by latency_budget) and the
  /// deadline-miss objective (jobs: violation = missed, budgeted by
  /// miss_budget) share the sliding window width.
  SloConfig slo;
};

/// The record collector. Thread-safe (mutex-guarded appends), but the
/// determinism contract assumes records arrive from the loops' serial
/// accounting phases; to_json is a pure function of the records and the
/// config.
class Ledger {
public:
  explicit Ledger(LedgerConfig config = {});

  void add(RequestRecord record);
  void add(JobRecord record);

  const std::vector<RequestRecord>& requests() const noexcept {
    return requests_;
  }
  const std::vector<JobRecord>& jobs() const noexcept { return jobs_; }
  LedgerConfig& config() noexcept { return config_; }
  const LedgerConfig& config() const noexcept { return config_; }

  void clear();

  /// "dsem-ledger-v1" document: config, a summary (per-stream counts and
  /// energy totals, miss-cause breakdown, per-artifact drift report, SLO
  /// burn, and an FNV-1a digest of the full record arrays), and — unless
  /// `summary_only` — the record arrays themselves. Deterministic: byte-
  /// identical for any DSEM_THREADS on a deterministic pipeline. The
  /// committed goldens pin the summary view; its digest field extends
  /// byte-identity to every record. Parsed from the serializer's compact
  /// output.
  json::Value to_json(bool summary_only = false) const;

  /// Pretty-printed to_json(false) with a trailing newline, streamed from
  /// the records without building a json::Value. Replaces `path` only
  /// once the whole document is written (json::write_file).
  void write_file(const std::string& path) const;

private:
  /// The one ledger layout: streams the document straight from the
  /// records.
  void write(json::Writer& w, bool summary_only) const;

  mutable std::mutex mutex_;
  LedgerConfig config_;
  std::vector<RequestRecord> requests_;
  std::vector<JobRecord> jobs_;
};

} // namespace dsem::obs
