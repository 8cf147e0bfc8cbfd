// Aggregate metrics for the sweep pipeline: counters, gauges, and
// log-bucketed histograms.
//
// dsem::trace (trace.hpp) records individual events for timeline
// inspection; this registry holds the numbers — the one layer that
// answers "how many launches, what was the p99 measurement latency, what
// did retries cost" without storing one record per event. Instruments are
// named at the call site and live in per-thread shards: the hot path
// touches only thread-local state (no contended lock), and exporters merge
// the shards into one deterministic, name-sorted Snapshot.
//
// The disabled path is the same single relaxed-atomic load and branch as
// the tracer's, cheap enough to leave in the per-launch hot loops
// permanently (regression-tested in tests/common/metrics_test.cpp).
//
// Determinism contract (mirrors SweepReport and the trace logical view):
// every instrument is tagged Reliability::kDeterministic or kWallClock at
// the call site.
//  - Deterministic instruments aggregate values that are pure functions of
//    seeds and grids (simulated seconds/joules, retry counts, grid sizes).
//    Aggregation is order-independent — integer sums for counters, integer
//    bucket counts plus min/max for histograms — so the deterministic
//    Snapshot view is bit-identical for any DSEM_THREADS. A histogram's
//    floating-point `sum` is the one order-dependent aggregate, so it (and
//    the mean) is excluded from the deterministic JSON view.
//  - kWallClock instruments carry scheduling- or clock-dependent content
//    (task tallies, cache hit/miss splits, training durations) and appear
//    only in the full view.
// Gauges are last-write-wins (ordered by a global update counter), which
// is only deterministic for serial driver code: anything set from inside a
// pool task must be tagged kWallClock.
//
// Enabling: pass --metrics-out to a driver binary (obs::Session turns the
// registry on and writes the "dsem-run-v1" manifest at the end of the
// run), or call metrics::set_enabled(true) directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace dsem::metrics {

enum class Reliability : std::uint8_t {
  kDeterministic, ///< pure function of seeds/grid; safe across DSEM_THREADS
  kWallClock,     ///< scheduling- or clock-dependent; full view only
};

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Histogram bucket geometry: log-spaced boundaries with 8 buckets per
/// octave (adjacent boundaries differ by 2^(1/8) ≈ 9 %), spanning
/// [kHistogramMin, kHistogramMin * 2^(kHistogramBuckets-1)/8) ≈ 1e-12..8e14
/// — wide enough for seconds, joules, and counts alike. Bucket 0 catches
/// everything <= kHistogramMin (including zero and negatives).
inline constexpr int kBucketsPerOctave = 8;
inline constexpr double kHistogramMin = 1e-12;
inline constexpr std::size_t kHistogramBuckets = 720;

/// Index of the bucket holding `value` (pure function of the value).
std::size_t bucket_index(double value) noexcept;
/// Upper boundary of bucket `index` (the value every sample in the bucket
/// is attributed to when estimating quantiles).
double bucket_upper_bound(std::size_t index) noexcept;

namespace detail {

extern std::atomic<bool> g_enabled;

void record_counter(std::string_view name, std::uint64_t delta,
                    Reliability r);
void record_gauge(std::string_view name, double value, Reliability r);
void record_histogram(std::string_view name, double value, Reliability r);

} // namespace detail

/// True when the global registry is recording. The only cost
/// instrumentation pays when metrics are off: one relaxed atomic load and
/// a branch.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns global recording on or off (obs::Session calls this for
/// --metrics-out).
void set_enabled(bool on) noexcept;

/// Monotonic named counter (integer deltas, so cross-shard aggregation is
/// exact and order-independent).
inline void counter(std::string_view name, std::uint64_t delta = 1,
                    Reliability r = Reliability::kDeterministic) {
  if (enabled()) {
    detail::record_counter(name, delta, r);
  }
}

/// Point-in-time named value; last write wins across shards. Defaults to
/// kWallClock because last-write order is a scheduling accident unless the
/// writes are serial (see the determinism contract above).
inline void gauge(std::string_view name, double value,
                  Reliability r = Reliability::kWallClock) {
  if (enabled()) {
    detail::record_gauge(name, value, r);
  }
}

/// Observes one sample into a log-bucketed histogram.
inline void histogram(std::string_view name, double value,
                      Reliability r = Reliability::kDeterministic) {
  if (enabled()) {
    detail::record_histogram(name, value, r);
  }
}

/// RAII wall-clock timer: observes the scope's elapsed seconds into
/// histogram `name` (always kWallClock — wall time is never
/// deterministic). Cheap to construct when metrics are disabled.
class ScopedTimer {
public:
  explicit ScopedTimer(std::string_view name) noexcept {
    if (enabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
      active_ = true;
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (active_) {
      detail::record_histogram(
          name_,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count(),
          Reliability::kWallClock);
    }
  }

private:
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

// --- Snapshots -------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  Reliability reliability = Reliability::kDeterministic;
  std::uint64_t count = 0; ///< number of increments
  std::uint64_t total = 0; ///< sum of deltas
};

struct GaugeSnapshot {
  std::string name;
  Reliability reliability = Reliability::kWallClock;
  double value = 0.0;        ///< most recent write (global update order)
  std::uint64_t updates = 0; ///< number of writes
};

struct HistogramSnapshot {
  std::string name;
  Reliability reliability = Reliability::kDeterministic;
  std::uint64_t count = 0;
  double sum = 0.0; ///< order-dependent; excluded from deterministic view
  double min = 0.0;
  double max = 0.0;
  /// Per-bucket sample counts (bucket_index geometry), trimmed to the last
  /// occupied bucket.
  std::vector<std::uint64_t> buckets;

  /// Quantile estimate with common/statistics semantics: sample rank
  /// position q*(count-1), linear interpolation between ranks. Each sample
  /// is attributed its bucket's upper boundary, clamped to the observed
  /// [min, max], so the estimate's relative error is bounded by one bucket
  /// width (2^(1/8)-1 ≈ 9 %) and single-sample / tied histograms are
  /// exact at the extremes.
  double quantile(double q) const;
  double mean() const noexcept;

  /// Adds one sample. The registry's per-shard histograms record through
  /// it, and so do histograms that live outside the registry (the obs::
  /// drift monitor folds residuals into snapshots directly).
  void observe(double value);

  /// Folds `other` into this snapshot — the merge the registry applies
  /// across per-thread shards, so merging two registries' snapshots
  /// equals one registry that saw all samples (bucket counts, count, min,
  /// max exactly; `sum` is the one order-dependent field).
  /// Names/reliability must match unless one side is empty (count 0).
  void merge(const HistogramSnapshot& other);
};

/// Deterministic, name-sorted merge of every shard at one point in time.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Schema "dsem-metrics-v1". When `deterministic_only`, kWallClock
  /// instruments and the order-dependent histogram fields (sum, mean) are
  /// dropped — the remainder is bit-identical for any DSEM_THREADS on a
  /// deterministic pipeline (golden-snapshot tested).
  json::Value to_json(bool deterministic_only = false) const;

  /// Flat human-readable rendering via the shared instrument table
  /// (common/table): histograms with p50/p90/p99, counters/gauges as
  /// value rows.
  void write_table(std::ostream& os) const;
};

inline constexpr const char* kMetricsSchema = "dsem-metrics-v1";

/// The process-wide registry. Never destroyed (worker threads may record
/// until process exit).
class Registry {
public:
  static Registry& global();

  /// Merged view of all per-thread shards.
  Snapshot snapshot() const;

  /// Drops every instrument in every shard (tests; back-to-back runs).
  void clear();

private:
  Registry() = default;
};

} // namespace dsem::metrics
