// BENCH_<date>.json perf reports: build, merge, and compare.
//
// The perf trajectory of this repo is a sequence of BENCH_*.json files
// (schema "dsem-bench-v1"), one per measured revision, produced by
// bench/perf_report. Each file merges the Google Benchmark JSON output of
// the perf_* micro-benchmark binaries with an instrumented end-to-end
// pipeline run (wall time plus its "dsem-run-v1" manifest). The compare
// half diffs two such files and flags entries whose real time regressed
// beyond a tolerance — bench/perf_compare wraps it as the CI gate.
//
// Document shape:
//   {
//     "schema": "dsem-bench-v1",
//     "date": "YYYY-MM-DD",
//     "mode": "smoke" | "full",
//     "benchmarks": [
//       {"name": "perf_sim/BM_DeviceLaunch", "real_time_ns": ...,
//        "cpu_time_ns": ..., "iterations": ...}, ...
//     ],
//     "pipeline": null | {"name": ..., "wall_s": ..., "run_manifest": ...}
//   }
// Benchmark names are "<binary>/<benchmark>" so entries from different
// binaries cannot collide; the pipeline run also appears in "benchmarks"
// as "pipeline/<name>" so the compare tool sees it like any other entry.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace dsem::benchreport {

inline constexpr const char* kBenchSchema = "dsem-bench-v1";

/// Empty report skeleton (no benchmarks, null pipeline).
json::Value make_report(const std::string& date, const std::string& mode);

/// Throws contract_error unless `report` structurally conforms to
/// "dsem-bench-v1" (schema tag, benchmark entry fields).
void validate(const json::Value& report);

/// Appends one benchmark entry (name must be unique within the report).
void add_entry(json::Value& report, const std::string& name,
               double real_time_ns, double cpu_time_ns, double iterations);

/// Merges one Google Benchmark `--benchmark_out_format=json` document,
/// prefixing entry names with "<binary>/". Aggregate rows (mean/median/
/// stddev re-runs) are skipped; per-iteration rows are normalized to
/// nanoseconds from the entry's time_unit. User counters whose names end
/// in "_ns" (already-nanosecond latencies like the serving percentiles)
/// become standalone entries "<binary>/<benchmark>:<counter>" so the
/// compare gate sees them individually; other counters stay embedded in
/// the Google Benchmark file only. Returns the number of entries merged.
std::size_t merge_google_benchmark(json::Value& report,
                                   const std::string& binary,
                                   const json::Value& gbench);

/// Attaches the instrumented end-to-end run: records the pipeline object
/// and appends a "pipeline/<name>" benchmark entry with the wall time so
/// regressions in the full pipeline are flagged like any micro-benchmark.
void set_pipeline(json::Value& report, const std::string& name, double wall_s,
                  json::Value run_manifest);

struct CompareOptions {
  /// Flag a regression when current > baseline * (1 + tolerance). Generous
  /// by default: micro-benchmarks on shared CI hardware are noisy.
  double tolerance = 0.25;
  /// Ignore entries whose baseline real time is below this (too fast to
  /// compare meaningfully).
  double min_time_ns = 100.0;
};

struct Delta {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 0.0; ///< current / baseline
};

struct CompareResult {
  std::vector<Delta> regressions;  ///< beyond tolerance, slower
  std::vector<Delta> improvements; ///< beyond tolerance, faster
  std::vector<std::string> missing; ///< in baseline, absent from current
  std::vector<std::string> added;   ///< in current, absent from baseline
  bool ok() const noexcept { return regressions.empty(); }
};

/// Diffs two validated reports entry-by-entry on real time.
CompareResult compare(const json::Value& baseline, const json::Value& current,
                      const CompareOptions& options = {});

/// Deltas whose name starts with `prefix`, in input order. An empty prefix
/// matches nothing (a gate that strictens "" would silently strict-gate
/// every benchmark). Backs perf_compare --strict-prefix.
std::vector<Delta> match_prefix(const std::vector<Delta>& deltas,
                                const std::string& prefix);

/// Human-readable rendering of a comparison (table of deltas plus
/// missing/added lists).
void print_compare(std::ostream& os, const CompareResult& result,
                   const CompareOptions& options = {});

} // namespace dsem::benchreport
