// Structured tracing for the sweep pipeline.
//
// A process-wide, off-by-default event recorder: RAII spans and instant
// markers, recorded into per-thread buffers and exported either as Chrome
// trace_event JSON (loadable in chrome://tracing / Perfetto) through a
// json::Writer, or as a flat summary table (common/table). The trace is
// the timeline: what ran, in what order, and where a fault struck. Counts
// and values (retries, cache hits, launches, phase seconds) belong to
// dsem::metrics (metrics.hpp), which aggregates them without one record
// per event.
// The disabled path is a single relaxed-atomic load and branch — cheap
// enough to leave the instrumentation in hot layers permanently (a
// regression test in tests/common/trace_test.cpp asserts this).
//
// Every event carries two orderings:
//  - Wall-clock timestamps (steady_clock) for the Chrome export. These are
//    report-only: they depend on machine load and thread scheduling.
//  - A logical (path, seq) key for determinism tests. A ROOT span — e.g.
//    one per sweep grid point, keyed by its flat grid index — derives its
//    path purely from (name, logical_index) and resets the calling
//    thread's logical scope, so attribution never depends on which pool
//    thread executes a task. Events inside the scope take consecutive
//    sequence numbers; task bodies are serial, so the key is a pure
//    function of the grid, not of DSEM_THREADS.
//
// Events are classified Stable or TimingDependent. Stable events (grid
// point spans, retry fault markers, training spans, ...) have
// deterministic content and keys: the golden-trace tests compare them
// bit-for-bit across pool sizes. TimingDependent events (pool
// task/steal/idle spans) are excluded from the logical view — mirroring
// the SweepReport determinism contract.
// A stable-site event recorded inside a pool-executed task but outside
// any logical scope is downgraded automatically (ThreadPool wraps task
// execution in a ScopeReset), so the invariant is structural.
//
// Enabling: pass --trace-out to a driver binary (obs::Session turns the
// tracer on and writes the Chrome JSON at the end of the run), or call
// trace::set_enabled(true) directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dsem::json {
class Writer;
} // namespace dsem::json

namespace dsem::trace {

/// Canonical category names used by the built-in instrumentation.
namespace cat {
inline constexpr const char* kPool = "pool";
inline constexpr const char* kSweep = "sweep";
inline constexpr const char* kMeasure = "measure";
inline constexpr const char* kQueue = "queue";
inline constexpr const char* kTrain = "train";
inline constexpr const char* kEval = "eval";
} // namespace cat

enum class Reliability : std::uint8_t {
  kStable,          ///< deterministic content; part of the logical view
  kTimingDependent, ///< scheduling/wall-clock dependent; report-only
};

enum class EventKind : std::uint8_t { kSpan, kInstant };

/// One recorded event. `name` and `category` must be string literals (or
/// otherwise outlive the tracer); free-form data goes in `arg`.
struct Event {
  EventKind kind = EventKind::kInstant;
  bool stable = false;    ///< survived the Reliability + scope downgrade
  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;       ///< buffer registration order; report-only
  std::int64_t start_ns = 0;   ///< wall clock since tracer epoch; report-only
  std::int64_t dur_ns = 0;     ///< spans only; report-only
  double value = 0.0;          ///< spans only: Span::value
  bool has_value = false;
  std::uint64_t logical_path = 0; ///< enclosing scope (0 = thread root)
  std::uint64_t logical_seq = 0;  ///< serial order within the scope
  std::string arg;
};

/// The deterministic projection of an Event: everything except wall-clock
/// fields and thread ids. Golden-trace tests compare vectors of these.
struct LogicalEvent {
  std::uint64_t path = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::string category;
  std::string arg;
  double value = 0.0;

  bool operator==(const LogicalEvent&) const = default;
};

namespace detail {

extern std::atomic<bool> g_enabled;

void record_instant(const char* name, const char* category, Reliability r,
                    const std::string& arg);

} // namespace detail

/// True when the global tracer is recording. The only cost instrumentation
/// pays when tracing is off: one relaxed atomic load and a branch.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns global recording on or off (obs::Session calls this for
/// --trace-out).
void set_enabled(bool on) noexcept;

/// RAII span. Construct cheaply on every code path; records one kSpan
/// event at destruction when tracing was enabled at construction.
class Span {
public:
  /// Plain span: nests in the calling thread's current logical scope.
  Span(const char* name, const char* category) noexcept {
    if (enabled()) {
      begin(name, category, 0, /*root=*/false, Reliability::kStable);
    }
  }

  /// Plain span with explicit reliability — kTimingDependent for spans
  /// whose existence or placement depends on scheduling (pool internals).
  Span(const char* name, const char* category, Reliability r) noexcept {
    if (enabled()) {
      begin(name, category, 0, /*root=*/false, r);
    }
  }

  /// ROOT span: derives its logical path from (name, logical_index) alone
  /// and makes itself the thread's scope until destruction. Use one per
  /// deterministically-indexed unit of work (grid point, LOOCV fold).
  Span(const char* name, const char* category,
       std::uint64_t logical_index) noexcept {
    if (enabled()) {
      begin(name, category, logical_index, /*root=*/true,
            Reliability::kStable);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (active_) {
      end();
    }
  }

  /// Attaches a free-form argument (kernel name, input name, ...). Only
  /// copies when the span is live.
  void arg(const std::string& value) {
    if (active_) {
      arg_ = value;
    }
  }

  /// Attaches a numeric argument (frequency, row count, ...).
  void value(double v) noexcept {
    if (active_) {
      value_ = v;
      has_value_ = true;
    }
  }

private:
  void begin(const char* name, const char* category,
             std::uint64_t logical_index, bool root, Reliability r) noexcept;
  void end() noexcept;

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint64_t path_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t saved_path_ = 0;
  std::uint64_t saved_seq_ = 0;
  double value_ = 0.0;
  bool saved_active_ = false;
  bool active_ = false;
  bool root_ = false;
  bool stable_ = false;
  bool has_value_ = false;
  std::string arg_;
};

/// Zero-duration marker (a fault observed, a retry scheduled).
inline void instant(const char* name, const char* category,
                    Reliability r = Reliability::kStable,
                    const std::string& arg = {}) {
  if (enabled()) {
    detail::record_instant(name, category, r, arg);
  }
}

/// Clears the calling thread's logical scope for the duration of a
/// pool-executed task: work stolen by a blocked waiter must not record
/// into the waiter's scope (attribution would then depend on scheduling).
/// ThreadPool wraps every task execution in one of these.
class ScopeReset {
public:
  ScopeReset() noexcept;
  ~ScopeReset();

  ScopeReset(const ScopeReset&) = delete;
  ScopeReset& operator=(const ScopeReset&) = delete;

private:
  std::uint64_t saved_path_ = 0;
  std::uint64_t saved_seq_ = 0;
  bool saved_active_ = false;
};

/// The process-wide event recorder. Never destroyed (worker threads may
/// record until process exit).
class Tracer {
public:
  static Tracer& global();

  /// Drops all recorded events and resets the calling thread's logical
  /// sequence (so back-to-back golden runs start from the same state).
  void clear();

  std::size_t event_count() const;

  /// Merged copy of all buffers, sorted by start timestamp.
  std::vector<Event> events() const;

  /// Stable events only, canonically ordered by (path, seq, content) —
  /// identical across DSEM_THREADS for deterministic pipelines.
  std::vector<LogicalEvent> logical_events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) as one document
  /// on `writer`. Timestamps and durations are microseconds at full
  /// precision; `logical_path` is a decimal string (a 64-bit hash does not
  /// survive a double), and a non-finite span value is written as null.
  void write_chrome_trace(json::Writer& writer) const;

  /// Flat per-name summary (spans: count/total/mean/min/max; instants:
  /// count) rendered with common/table.
  void write_summary(std::ostream& os) const;

private:
  Tracer() = default;
};

} // namespace dsem::trace
