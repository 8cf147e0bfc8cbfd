// dsem::trace contract tests.
//
//  - Off by default, and the disabled path stays cheap enough to leave in
//    hot loops (overhead regression test with a CI-generous threshold).
//  - Spans and instants record with correct content; counts and values
//    live in dsem::metrics, so the trace has no counter or gauge events.
//  - The Chrome trace_event export parses back to every recorded event:
//    full-precision timestamps and values, null for a non-finite value.
//  - Golden-trace determinism: a tiny faulty sweep records an identical
//    logical event sequence (names, args, values, fault markers) for thread
//    pools of size 1, 2 and 8 — the in-process equivalent of running with
//    DSEM_THREADS ∈ {1, 2, 8}, which sizes the global pool the same way.
#include "common/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/characterization.hpp"

namespace dsem::trace {
namespace {

/// Every test runs against the process-global tracer: start from a clean,
/// enabled state and always leave it disabled and empty for the next test.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(false);
    Tracer::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    Tracer::global().clear();
  }
};

TEST_F(TraceTest, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(enabled());
  {
    Span span("off.span", cat::kMeasure);
    span.value(1.0);
    instant("off.instant", cat::kMeasure);
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(TraceTest, RecordsAllEventKindsWhenEnabled) {
  set_enabled(true);
  {
    Span span("on.span", cat::kSweep);
    span.arg("payload");
    span.value(42.0);
    instant("on.instant", cat::kMeasure, Reliability::kStable, "mark");
  }
  const std::vector<Event> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);

  bool saw_span = false;
  for (const Event& e : events) {
    if (e.kind == EventKind::kSpan) {
      saw_span = true;
      EXPECT_STREQ(e.name, "on.span");
      EXPECT_STREQ(e.category, cat::kSweep);
      EXPECT_EQ(e.arg, "payload");
      EXPECT_TRUE(e.has_value);
      EXPECT_EQ(e.value, 42.0);
      EXPECT_GE(e.dur_ns, 0);
    }
  }
  EXPECT_TRUE(saw_span);

  // Both were recorded serially on this thread outside any scope: stable,
  // path 0, consecutive sequence numbers. The span takes its seq at
  // construction, before the instant.
  const auto logical = Tracer::global().logical_events();
  ASSERT_EQ(logical.size(), 2u);
  for (std::size_t i = 0; i < logical.size(); ++i) {
    EXPECT_EQ(logical[i].path, 0u) << i;
    EXPECT_EQ(logical[i].seq, i) << i;
  }
  EXPECT_EQ(logical[0].name, "on.span");
  EXPECT_EQ(logical[0].kind, EventKind::kSpan);
  EXPECT_EQ(logical[0].value, 42.0);
  EXPECT_EQ(logical[1].name, "on.instant");
  EXPECT_EQ(logical[1].kind, EventKind::kInstant);
  EXPECT_EQ(logical[1].arg, "mark");
}

TEST_F(TraceTest, ClearResetsEventsAndSequence) {
  set_enabled(true);
  instant("reset.probe", cat::kMeasure);
  const auto first = Tracer::global().logical_events();
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().event_count(), 0u);
  instant("reset.probe", cat::kMeasure);
  EXPECT_EQ(Tracer::global().logical_events(), first);
}

TEST_F(TraceTest, RootSpanScopesNestedEvents) {
  set_enabled(true);
  {
    Span root("scope.root", cat::kSweep, /*logical_index=*/7);
    instant("scope.inner", cat::kMeasure);
    Span nested("scope.nested", cat::kMeasure);
  }
  instant("scope.outer", cat::kMeasure);

  const auto logical = Tracer::global().logical_events();
  ASSERT_EQ(logical.size(), 4u);
  // Canonical order sorts path 0 (the thread root) first.
  EXPECT_EQ(logical[0].name, "scope.outer");
  EXPECT_EQ(logical[0].path, 0u);

  // Root + its two children share a nonzero path with consecutive seqs.
  const std::uint64_t path = logical[1].path;
  EXPECT_NE(path, 0u);
  EXPECT_EQ(logical[1].name, "scope.root");
  EXPECT_EQ(logical[1].seq, 0u);
  EXPECT_EQ(logical[2].name, "scope.inner");
  EXPECT_EQ(logical[2].path, path);
  EXPECT_EQ(logical[2].seq, 1u);
  EXPECT_EQ(logical[3].name, "scope.nested");
  EXPECT_EQ(logical[3].path, path);
  EXPECT_EQ(logical[3].seq, 2u);
}

TEST_F(TraceTest, RootSpanPathDependsOnlyOnNameAndIndex) {
  set_enabled(true);
  { Span a("path.probe", cat::kSweep, 3); }
  { Span b("path.probe", cat::kSweep, 3); }
  { Span c("path.probe", cat::kSweep, 4); }
  const auto logical = Tracer::global().logical_events();
  ASSERT_EQ(logical.size(), 3u);
  std::vector<std::uint64_t> paths;
  for (const auto& e : logical) {
    paths.push_back(e.path);
  }
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths[0], paths[1]); // same (name, index) -> same path
  EXPECT_NE(paths[1], paths[2]); // different index -> different path
}

TEST_F(TraceTest, TimingDependentEventsExcludedFromLogicalView) {
  set_enabled(true);
  instant("td.instant", cat::kPool, Reliability::kTimingDependent);
  { Span span("td.span", cat::kPool, Reliability::kTimingDependent); }
  EXPECT_EQ(Tracer::global().event_count(), 2u);
  EXPECT_TRUE(Tracer::global().logical_events().empty());
}

TEST_F(TraceTest, ScopelessStableEventsInPoolTasksAreDowngraded) {
  set_enabled(true);
  ThreadPool pool(2);
  // A stable-site instant inside a pool task but outside any root scope:
  // its thread placement is a scheduling accident, so it must not reach
  // the logical view. With a root scope it must.
  pool.submit([] { instant("pool.unscoped", cat::kMeasure); }).get();
  pool.submit([] {
        Span root("pool.scoped_root", cat::kSweep, 0);
        instant("pool.scoped", cat::kMeasure);
      })
      .get();
  // Count by name rather than asserting a global total: idle workers may
  // record a nondeterministic number of pool.idle spans while tracing is on.
  std::size_t unscoped = 0;
  for (const auto& e : Tracer::global().events()) {
    if (std::string_view(e.name) == "pool.unscoped") {
      ++unscoped;
      EXPECT_FALSE(e.stable); // recorded, but downgraded out of the logical view
    }
  }
  EXPECT_EQ(unscoped, 1u);

  const auto logical = Tracer::global().logical_events();
  ASSERT_EQ(logical.size(), 2u);
  EXPECT_EQ(logical[0].name, "pool.scoped_root");
  EXPECT_EQ(logical[1].name, "pool.scoped");
}

// --- Chrome export ---------------------------------------------------------

/// The global tracer's Chrome export, in the compact layout.
std::string chrome_json() {
  std::string text;
  json::StringSink sink(text);
  json::Writer writer(sink);
  Tracer::global().write_chrome_trace(writer);
  writer.flush();
  return text;
}

TEST_F(TraceTest, ChromeExportIsWellFormedJson) {
  set_enabled(true);
  {
    Span span("json.span", cat::kSweep, 0);
    span.arg("quote \" backslash \\ newline \n tab \t");
    span.value(1.25);
    instant("json.instant", cat::kMeasure, Reliability::kStable, "mark");
  }
  const std::string text = chrome_json();
  const json::Value doc = json::Value::parse(text);

  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos); // span
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos); // instant
  EXPECT_NE(text.find("json.span"), std::string::npos);
  EXPECT_NE(text.find("\"value\":1.25"), std::string::npos);
  EXPECT_NE(text.find("\"arg\":\"mark\""), std::string::npos);
  // The raw control characters must not survive into the output.
  EXPECT_EQ(text.find('\n'), std::string::npos);
}

TEST_F(TraceTest, EmptyTraceExportsValidJson) {
  const json::Value doc = json::Value::parse(chrome_json());
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST_F(TraceTest, ChromeExportRoundTripsEveryEvent) {
  set_enabled(true);
  {
    Span root("rt.root", cat::kSweep, 7);
    root.arg("input \"a\"\n");
    root.value(1234567.891); // six significant digits would drop the .891
    {
      Span nan_span("rt.nan", cat::kMeasure);
      nan_span.value(std::numeric_limits<double>::quiet_NaN());
    }
    {
      Span inf_span("rt.inf", cat::kMeasure, Reliability::kTimingDependent);
      inf_span.value(-std::numeric_limits<double>::infinity());
    }
    instant("rt.instant", cat::kQueue, Reliability::kStable, "retry");
  }
  const std::vector<Event> events = Tracer::global().events();
  const json::Value doc = json::Value::parse(chrome_json());
  const json::Value::Array& exported = doc.at("traceEvents").as_array();
  ASSERT_EQ(exported.size(), events.size());
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const json::Value& out = exported[i];
    SCOPED_TRACE(e.name);
    const bool span = e.kind == EventKind::kSpan;
    EXPECT_EQ(out.at("name").as_string(), e.name);
    EXPECT_EQ(out.at("cat").as_string(), e.category);
    EXPECT_EQ(out.at("ph").as_string(), span ? "X" : "i");
    EXPECT_EQ(out.at("tid").as_number(), static_cast<double>(e.tid));
    EXPECT_EQ(out.at("ts").as_number(), static_cast<double>(e.start_ns) / 1e3);
    if (span) {
      EXPECT_EQ(out.at("dur").as_number(),
                static_cast<double>(e.dur_ns) / 1e3);
    } else {
      EXPECT_EQ(out.find("dur"), nullptr);
    }
    const json::Value& args = out.at("args");
    const json::Value* value = args.find("value");
    ASSERT_EQ(value != nullptr, e.has_value);
    if (e.has_value && std::isfinite(e.value)) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value->as_number()),
                std::bit_cast<std::uint64_t>(e.value));
    } else if (e.has_value) {
      EXPECT_TRUE(value->is_null());
    }
    const json::Value* arg = args.find("arg");
    EXPECT_EQ(arg == nullptr ? std::string() : arg->as_string(), e.arg);
    const json::Value* path = args.find("logical_path");
    ASSERT_EQ(path != nullptr, e.stable);
    if (e.stable) {
      EXPECT_EQ(path->as_string(), std::to_string(e.logical_path));
      EXPECT_EQ(args.at("logical_seq").as_number(),
                static_cast<double>(e.logical_seq));
    }
  }
}

TEST_F(TraceTest, SummaryTableListsEveryInstrumentName) {
  set_enabled(true);
  { Span span("sum.span", cat::kSweep); }
  instant("sum.instant", cat::kMeasure);
  instant("sum.instant", cat::kMeasure);
  std::ostringstream os;
  Tracer::global().write_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("sum.span"), std::string::npos);
  EXPECT_NE(text.find("sum.instant"), std::string::npos);
  EXPECT_NE(text.find("trace summary (3 events, 2 instants"), std::string::npos)
      << text;
}

// --- Golden-trace determinism ---------------------------------------------

std::vector<double> strided_freqs(const synergy::Device& device,
                                  std::size_t stride) {
  const auto all = device.supported_frequencies();
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

/// Runs a tiny faulty characterization sweep on a pool of `threads`
/// workers and returns the logical trace it recorded. Faults make the
/// retry markers fire; the per-point replica devices make the fault
/// pattern a pure function of the grid.
std::vector<LogicalEvent> traced_sweep(std::size_t threads) {
  Tracer::global().clear();
  set_enabled(true);
  {
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.015, 0.015}, 0x077);
    sim::FaultConfig faults;
    faults.set_frequency_rate = 0.2;
    faults.energy_read_drop_rate = 0.1;
    sim_dev.set_fault_config(faults);
    synergy::Device device(sim_dev);
    const core::CronosWorkload workload(cronos::GridDims{12, 6, 6}, 2);

    ThreadPool pool(threads);
    sim::ProfileCache cache;
    core::SweepOptions options;
    options.repetitions = 2;
    options.pool = &pool;
    options.cache = &cache;
    options.retry = core::RetryPolicy{4, 0.01, 2.0};
    core::characterize(device, workload, options, strided_freqs(device, 16));
  }
  auto out = Tracer::global().logical_events();
  set_enabled(false);
  Tracer::global().clear();
  return out;
}

TEST_F(TraceTest, GoldenTraceIdenticalAcrossPoolSizes) {
  const std::vector<LogicalEvent> serial = traced_sweep(1);
  ASSERT_FALSE(serial.empty());

  // Sanity on the schema before comparing: the logical view must contain
  // the grid-point spans and a marker for each fault the retries absorbed
  // — and none of the timing-dependent names.
  std::size_t points = 0;
  std::size_t faults = 0;
  for (const LogicalEvent& e : serial) {
    if (e.name == "sweep.point") {
      ++points;
    }
    if (e.name == "retry.fault") {
      ++faults;
      EXPECT_EQ(e.kind, EventKind::kInstant);
    }
    EXPECT_NE(e.name, "pool.task");
    EXPECT_NE(e.name, "pool.steal");
    EXPECT_NE(e.name, "pool.idle");
  }
  // 13 swept frequencies (stride 16 over 196 plus the last partial step)
  // + the default-clock baseline; count the grid instead of hardcoding.
  EXPECT_GT(points, 1u);
  EXPECT_GT(faults, 0u); // faults forced retries

  for (std::size_t threads : {2u, 8u}) {
    const std::vector<LogicalEvent> parallel = traced_sweep(threads);
    ASSERT_EQ(serial.size(), parallel.size()) << "pool size " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "pool size " << threads << ", event " << i << ": "
          << serial[i].name << " vs " << parallel[i].name;
    }
  }
}

TEST_F(TraceTest, GoldenTraceStableAcrossRepeatedRuns) {
  // Same pool size twice: clear() must fully reset the logical state.
  const auto a = traced_sweep(4);
  const auto b = traced_sweep(4);
  EXPECT_EQ(a, b);
}

// --- Disabled-path overhead ------------------------------------------------

TEST_F(TraceTest, DisabledTracerOverheadStaysNegligible) {
  ASSERT_FALSE(enabled());
  // The disabled fast path is one relaxed atomic load + branch per call
  // site (a few ns). The bound is two orders of magnitude above that so
  // CI noise, sanitizers, or debug builds cannot trip it — it exists to
  // catch a regression that puts real work (locking, allocation, clock
  // reads) on the disabled path, which would cost microseconds, not
  // nanoseconds.
  constexpr int kIters = 200'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    Span span("overhead.span", cat::kMeasure);
    span.value(static_cast<double>(i));
    instant("overhead.instant", cat::kMeasure);
  }
  const double elapsed_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  const double ns_per_iter = elapsed_ns / kIters;
  EXPECT_LT(ns_per_iter, 1000.0) << "disabled-path cost regressed";
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

} // namespace
} // namespace dsem::trace
