// dsem::metrics contract tests.
//
//  - Off by default, and the disabled path stays cheap enough to leave in
//    hot loops (same regression bar as the disabled tracer).
//  - Counters / gauges / histograms record and merge across shards into
//    one name-sorted snapshot.
//  - Histogram quantiles follow common/statistics semantics to within one
//    log-bucket of relative error.
//  - Golden-snapshot determinism: the deterministic JSON view of a tiny
//    faulty sweep is bit-identical on global pools of 1, 2 and 8 workers.
//    ScopedGlobalPool swaps the process pool every layer runs on, so this
//    is the in-process equivalent of DSEM_THREADS ∈ {1, 2, 8}.
#include "common/metrics.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"
#include "core/characterization.hpp"

namespace dsem::metrics {
namespace {

/// Every test runs against the process-global registry: start from a
/// clean, disabled state and always leave it that way for the next test.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(false);
    Registry::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    Registry::global().clear();
  }
};

TEST_F(MetricsTest, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(enabled());
  counter("off.counter");
  gauge("off.gauge", 1.0);
  histogram("off.histogram", 2.0);
  { ScopedTimer timer("off.timer_s"); }
  EXPECT_TRUE(Registry::global().snapshot().empty());
}

TEST_F(MetricsTest, RecordsAllInstrumentKindsWhenEnabled) {
  set_enabled(true);
  counter("on.counter", 2);
  counter("on.counter", 3);
  gauge("on.gauge", 1.5);
  gauge("on.gauge", 2.5);
  histogram("on.histogram", 1.0);
  histogram("on.histogram", 4.0);

  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "on.counter");
  EXPECT_EQ(snap.counters[0].count, 2u);
  EXPECT_EQ(snap.counters[0].total, 5u);

  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "on.gauge");
  EXPECT_EQ(snap.gauges[0].updates, 2u);
  EXPECT_EQ(snap.gauges[0].value, 2.5); // last write wins

  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "on.histogram");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].min, 1.0);
  EXPECT_EQ(snap.histograms[0].max, 4.0);
  EXPECT_EQ(snap.histograms[0].sum, 5.0);
}

TEST_F(MetricsTest, ClearResetsEveryShard) {
  set_enabled(true);
  counter("reset.counter");
  Registry::global().clear();
  EXPECT_TRUE(Registry::global().snapshot().empty());
}

TEST_F(MetricsTest, SnapshotIsNameSorted) {
  set_enabled(true);
  counter("z.last");
  counter("a.first");
  counter("m.middle");
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "m.middle");
  EXPECT_EQ(snap.counters[2].name, "z.last");
}

TEST_F(MetricsTest, InstrumentKindMismatchThrows) {
  set_enabled(true);
  counter("kind.clash");
  EXPECT_THROW(histogram("kind.clash", 1.0), contract_error);
}

TEST_F(MetricsTest, BucketGeometryBoundsEveryValue) {
  // Every positive value lands in a bucket whose upper boundary is >= the
  // value and within one bucket width (2^(1/8)) of it.
  const double kWidth = std::exp2(1.0 / kBucketsPerOctave);
  for (double v : {1e-9, 3.7e-6, 0.5, 1.0, 42.0, 1e6, 7.7e13}) {
    const std::size_t idx = bucket_index(v);
    EXPECT_GE(bucket_upper_bound(idx), v) << v;
    EXPECT_LT(bucket_upper_bound(idx) / v, kWidth * (1.0 + 1e-12)) << v;
  }
  // Degenerate values all land in the underflow bucket.
  EXPECT_EQ(bucket_index(0.0), 0u);
  EXPECT_EQ(bucket_index(-5.0), 0u);
  EXPECT_EQ(bucket_index(kHistogramMin), 0u);
  // Overflow clamps to the last bucket instead of indexing out of range.
  EXPECT_EQ(bucket_index(1e300), kHistogramBuckets - 1);
}

TEST_F(MetricsTest, SingleSampleHistogramIsExactAtAllQuantiles) {
  set_enabled(true);
  histogram("single.sample", 0.125);
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0];
  // One sample: rank interpolation collapses and the clamp to the
  // observed [min, max] makes every quantile exact.
  EXPECT_EQ(h.quantile(0.0), 0.125);
  EXPECT_EQ(h.quantile(0.5), 0.125);
  EXPECT_EQ(h.quantile(1.0), 0.125);
}

TEST_F(MetricsTest, HistogramQuantilesMatchStatsQuantileWithinBucketError) {
  set_enabled(true);
  std::vector<double> samples;
  double x = 1e-4;
  for (int i = 0; i < 500; ++i) {
    x *= 1.013; // spans about two decades
    samples.push_back(x);
    histogram("quantile.samples", x);
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0];
  // The histogram only remembers bucket boundaries: agreement with the
  // exact sample quantile is bounded by one bucket width (~9 % relative).
  const double kWidth = std::exp2(1.0 / kBucketsPerOctave);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = stats::quantile(samples, q);
    const double approx = h.quantile(q);
    EXPECT_GT(approx, exact / kWidth) << "q=" << q;
    EXPECT_LT(approx, exact * kWidth) << "q=" << q;
  }
  // The top extreme is clamped to the observed max, hence exact; the
  // bottom rank is attributed its bucket's upper bound like any sample.
  EXPECT_EQ(h.quantile(1.0), samples.back());
  EXPECT_THROW(h.quantile(-0.1), contract_error);
  EXPECT_THROW(h.quantile(1.1), contract_error);
}

TEST_F(MetricsTest, ShardsMergeAcrossThreads) {
  set_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter("merge.counter");
        histogram("merge.histogram", static_cast<double>(i + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].total, kThreads * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
  EXPECT_EQ(snap.histograms[0].min, 1.0);
  EXPECT_EQ(snap.histograms[0].max, static_cast<double>(kPerThread));
}

TEST_F(MetricsTest, JsonViewsFilterWallClockContent) {
  set_enabled(true);
  counter("det.counter", 3);
  counter("wall.counter", 1, Reliability::kWallClock);
  gauge("wall.gauge", 2.0);
  histogram("det.histogram", 0.5);

  const Snapshot snap = Registry::global().snapshot();
  const json::Value full = snap.to_json(/*deterministic_only=*/false);
  EXPECT_EQ(full.at("schema").as_string(), kMetricsSchema);
  EXPECT_EQ(full.at("view").as_string(), "full");
  EXPECT_EQ(full.at("counters").as_array().size(), 2u);
  EXPECT_EQ(full.at("gauges").as_array().size(), 1u);
  // The full view carries the order-dependent aggregates...
  const json::Value& full_hist = full.at("histograms").as_array()[0];
  EXPECT_NE(full_hist.find("sum"), nullptr);
  EXPECT_NE(full_hist.find("mean"), nullptr);

  // ...the deterministic view drops them along with kWallClock rows.
  const json::Value det = snap.to_json(/*deterministic_only=*/true);
  EXPECT_EQ(det.at("view").as_string(), "deterministic");
  ASSERT_EQ(det.at("counters").as_array().size(), 1u);
  EXPECT_EQ(det.at("counters").as_array()[0].at("name").as_string(),
            "det.counter");
  EXPECT_TRUE(det.at("gauges").as_array().empty());
  const json::Value& det_hist = det.at("histograms").as_array()[0];
  EXPECT_EQ(det_hist.find("sum"), nullptr);
  EXPECT_EQ(det_hist.find("mean"), nullptr);
}

/// Runs the trace test's tiny faulty characterization sweep on a global
/// pool of `threads` workers and returns the deterministic metrics JSON it
/// recorded. Faults make the retry instrumentation fire; per-point
/// replica devices make everything a pure function of the grid.
std::string metered_sweep(std::size_t threads) {
  Registry::global().clear();
  set_enabled(true);
  {
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.015, 0.015}, 0x077);
    sim::FaultConfig faults;
    faults.set_frequency_rate = 0.2;
    faults.energy_read_drop_rate = 0.1;
    sim_dev.set_fault_config(faults);
    synergy::Device device(sim_dev);
    const core::CronosWorkload workload(cronos::GridDims{12, 6, 6}, 2);

    ScopedGlobalPool pool(threads);
    core::SweepOptions options;
    options.repetitions = 2;
    options.retry = core::RetryPolicy{4, 0.01, 2.0};
    const auto all = device.supported_frequencies();
    std::vector<double> freqs;
    for (std::size_t i = 0; i < all.size(); i += 16) {
      freqs.push_back(all[i]);
    }
    core::characterize(device, workload, options, freqs);
  }
  const std::string out =
      Registry::global().snapshot().to_json(/*deterministic_only=*/true).dump(
          2);
  set_enabled(false);
  Registry::global().clear();
  return out;
}

TEST_F(MetricsTest, GoldenDeterministicJsonIdenticalAcrossPoolSizes) {
  const std::string serial = metered_sweep(1);

  // Sanity on the content before comparing: the deterministic view must
  // carry the sweep tallies, retry accounting, and simulated launch
  // histograms — and none of the scheduling-dependent instruments.
  EXPECT_NE(serial.find("sweep.grid_points"), std::string::npos);
  EXPECT_NE(serial.find("retry.attempts"), std::string::npos);
  EXPECT_NE(serial.find("retry.backoff_s"), std::string::npos);
  EXPECT_NE(serial.find("sim.launch_energy_j"), std::string::npos);
  EXPECT_NE(serial.find("queue.launch_time_s"), std::string::npos);
  EXPECT_EQ(serial.find("cache."), std::string::npos);
  EXPECT_EQ(serial.find("pool."), std::string::npos);

  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(serial, metered_sweep(threads)) << "pool size " << threads;
  }
}

TEST_F(MetricsTest, GoldenSnapshotStableAcrossRepeatedRuns) {
  // Same pool size twice: clear() must fully reset the shard state.
  EXPECT_EQ(metered_sweep(4), metered_sweep(4));
}

TEST_F(MetricsTest, SnapshotTableListsEveryInstrument) {
  set_enabled(true);
  histogram("render.hist_s", 0.25);
  counter("render.counter", 28);
  counter("render.tasks", 1, Reliability::kWallClock);
  gauge("render.gauge", 3.0, Reliability::kDeterministic);

  std::ostringstream os;
  Registry::global().snapshot().write_table(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("metrics snapshot (4 instruments"), std::string::npos)
      << text;
  EXPECT_NE(text.find("render.hist_s"), std::string::npos);
  EXPECT_NE(text.find("render.counter"), std::string::npos);
  EXPECT_NE(text.find("render.gauge"), std::string::npos);
  // Wall-clock instruments carry the report-only marker on their kind.
  EXPECT_NE(text.find("counter~"), std::string::npos) << text;
  // Histogram rows expose the quantile columns declared by the helper.
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST_F(MetricsTest, DisabledMetricsOverheadStaysNegligible) {
  ASSERT_FALSE(enabled());
  // Same bar as the disabled-tracer test: the fast path is one relaxed
  // atomic load + branch per call site. The bound is two orders of
  // magnitude above that so CI noise or sanitizers cannot trip it — it
  // exists to catch a regression that puts real work (locking, shard
  // lookup, log2) on the disabled path.
  constexpr int kIters = 200'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    counter("overhead.counter");
    gauge("overhead.gauge", static_cast<double>(i));
    histogram("overhead.histogram", static_cast<double>(i));
    ScopedTimer timer("overhead.timer_s");
  }
  const double elapsed_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  const double ns_per_iter = elapsed_ns / kIters;
  EXPECT_LT(ns_per_iter, 1000.0) << "disabled-path cost regressed";
  EXPECT_TRUE(Registry::global().snapshot().empty());
}

TEST_F(MetricsTest, StandaloneObserveMatchesRegistryRecording) {
  // HistogramSnapshot::observe must accumulate exactly like recording
  // through the registry: same count/min/max/sum, same bucket counts,
  // same quantiles (the obs:: drift monitor depends on this).
  const std::vector<double> samples = {1e-6, 3.4e-3, 3.5e-3, 0.12,
                                       7.0,  0.0,    -2.0};
  set_enabled(true);
  for (const double s : samples) {
    histogram("merge.reference", s);
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& reference = snap.histograms.front();

  HistogramSnapshot standalone;
  for (const double s : samples) {
    standalone.observe(s);
  }
  EXPECT_EQ(standalone.count, reference.count);
  EXPECT_EQ(standalone.sum, reference.sum);
  EXPECT_EQ(standalone.min, reference.min);
  EXPECT_EQ(standalone.max, reference.max);
  EXPECT_EQ(standalone.buckets, reference.buckets);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(standalone.quantile(q), reference.quantile(q)) << q;
  }
}

TEST_F(MetricsTest, MergeAcrossRegistrySnapshotsEqualsOneCombinedRun) {
  // Two registry generations (snapshot + clear between them, i.e. two
  // independent registries' views) merged with HistogramSnapshot::merge
  // must equal one registry that saw every sample.
  const std::vector<double> first = {2e-6, 0.5, 0.03};
  const std::vector<double> second = {9.0, 1e-9, 0.031};

  set_enabled(true);
  for (const double s : first) {
    histogram("merge.split", s);
  }
  Snapshot gen1 = Registry::global().snapshot();
  Registry::global().clear();
  for (const double s : second) {
    histogram("merge.split", s);
  }
  Snapshot gen2 = Registry::global().snapshot();
  Registry::global().clear();

  for (const double s : first) {
    histogram("merge.split", s);
  }
  for (const double s : second) {
    histogram("merge.split", s);
  }
  const Snapshot combined = Registry::global().snapshot();

  ASSERT_EQ(gen1.histograms.size(), 1u);
  ASSERT_EQ(gen2.histograms.size(), 1u);
  ASSERT_EQ(combined.histograms.size(), 1u);
  HistogramSnapshot merged = gen1.histograms.front();
  merged.merge(gen2.histograms.front());
  const HistogramSnapshot& reference = combined.histograms.front();
  EXPECT_EQ(merged.name, reference.name);
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.min, reference.min);
  EXPECT_EQ(merged.max, reference.max);
  EXPECT_EQ(merged.buckets, reference.buckets);
  for (const double q : {0.0, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(merged.quantile(q), reference.quantile(q)) << q;
  }
}

TEST_F(MetricsTest, MergeWithEmptySideAdoptsOrKeepsTheOther) {
  HistogramSnapshot filled;
  filled.name = "merge.adopt";
  filled.observe(1.0);
  filled.observe(2.0);

  HistogramSnapshot empty;
  empty.merge(filled); // empty adopts the filled side wholesale
  EXPECT_EQ(empty.count, 2u);
  EXPECT_EQ(empty.name, "merge.adopt");
  EXPECT_EQ(empty.buckets, filled.buckets);

  HistogramSnapshot unchanged = filled;
  unchanged.merge(HistogramSnapshot{}); // merging in empty is a no-op
  EXPECT_EQ(unchanged.count, filled.count);
  EXPECT_EQ(unchanged.min, filled.min);
  EXPECT_EQ(unchanged.max, filled.max);
  EXPECT_EQ(unchanged.buckets, filled.buckets);
}

TEST_F(MetricsTest, MergeRejectsMismatchedNames) {
  HistogramSnapshot a;
  a.name = "merge.a";
  a.observe(1.0);
  HistogramSnapshot b;
  b.name = "merge.b";
  b.observe(2.0);
  EXPECT_THROW(a.merge(b), contract_error);
}

} // namespace
} // namespace dsem::metrics
