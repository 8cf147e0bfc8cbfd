// Golden serving determinism (grouped suite, heavy tier): the full
// pipeline — trained models, traffic, admission, cache, batched
// inference — produces bit-identical response streams and deterministic
// metrics snapshots for thread pools of 1, 2, and 8 workers. The
// ServingDeterminism suite pins a digest of the loop's whole output over
// synthetic models, so it runs per test in the unit tier.
#include <bit>
#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseResponse;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::TimedRequest;
using serve::TrafficConfig;

// Trained once, shared by every test in the grouped suite.
const ModelRegistry& shared_registry() {
  static ModelRegistry* registry = [] {
    auto* r = new ModelRegistry;
    r->put(serve_test::train_compact_artifact("cronos"));
    r->put(serve_test::train_compact_artifact("ligen"));
    return r;
  }();
  return *registry;
}

const std::vector<TimedRequest>& shared_trace() {
  static const std::vector<TimedRequest> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 5000.0; // fast enough to force batching
    traffic.population = 64;
    return serve::generate_trace(traffic);
  }();
  return trace;
}

ServeConfig test_config() {
  ServeConfig config;
  config.batch_size = 32;
  config.admission_bound = 256;
  config.cache_capacity = 512;
  return config;
}

struct ServeRun {
  std::vector<AdviseResponse> responses;
  serve::ServeStats stats;
  std::string metrics_json; ///< deterministic-only snapshot
};

ServeRun run_with_pool(std::size_t threads) {
  ScopedGlobalPool pool(threads);
  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  ServeLoop loop(shared_registry(), test_config());
  ServeRun run;
  run.responses = loop.run(shared_trace());
  run.stats = loop.stats();
  run.metrics_json =
      metrics::Registry::global().snapshot().to_json(true).dump(2);
  metrics::set_enabled(was_enabled);
  metrics::Registry::global().clear();
  return run;
}

TEST(ServeDeterminism, ResponsesIdenticalForPools1_2_8) {
  const ServeRun serial = run_with_pool(1);
  const ServeRun two = run_with_pool(2);
  const ServeRun eight = run_with_pool(8);
  ASSERT_EQ(serial.responses.size(), 10000u);
  // Full AdviseResponse equality: answers, hit/shed flags, provenance,
  // and every simulated timestamp, bit for bit.
  EXPECT_EQ(serial.responses, two.responses);
  EXPECT_EQ(serial.responses, eight.responses);
}

TEST(ServeDeterminism, StatsAndMetricsSnapshotsIdenticalForPools1_2_8) {
  const ServeRun serial = run_with_pool(1);
  const ServeRun two = run_with_pool(2);
  const ServeRun eight = run_with_pool(8);

  for (const ServeRun* other : {&two, &eight}) {
    EXPECT_EQ(serial.stats.served, other->stats.served);
    EXPECT_EQ(serial.stats.shed, other->stats.shed);
    EXPECT_EQ(serial.stats.cache_hits, other->stats.cache_hits);
    EXPECT_EQ(serial.stats.cache_misses, other->stats.cache_misses);
    EXPECT_EQ(serial.stats.batches, other->stats.batches);
    EXPECT_EQ(serial.stats.p50_latency_s, other->stats.p50_latency_s);
    EXPECT_EQ(serial.stats.p99_latency_s, other->stats.p99_latency_s);
    EXPECT_EQ(serial.stats.max_latency_s, other->stats.max_latency_s);
    EXPECT_EQ(serial.stats.sim_duration_s, other->stats.sim_duration_s);
  }
  // The deterministic metrics view is a single comparable string.
  EXPECT_EQ(serial.metrics_json, two.metrics_json);
  EXPECT_EQ(serial.metrics_json, eight.metrics_json);
  EXPECT_NE(serial.metrics_json.find("serve.latency_s"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("serve.cache.hits"),
            std::string::npos);
}

TEST(ServeDeterminism, TraceExercisesTheWholeSurface) {
  // The shared trace must actually cover hits, misses, batching, and both
  // applications — otherwise the identity checks above are vacuous.
  const ServeRun run = run_with_pool(4);
  EXPECT_GT(run.stats.cache_hits, 0u);
  EXPECT_GT(run.stats.cache_misses, 0u);
  EXPECT_LT(run.stats.batches, run.stats.served); // real batching happened
  bool saw_ligen = false;
  bool saw_cronos = false;
  for (const AdviseResponse& response : run.responses) {
    if (response.shed) {
      continue;
    }
    saw_ligen |= response.model.find("ligen/") == 0;
    saw_cronos |= response.model.find("cronos/") == 0;
    EXPECT_GT(response.answer.freq_mhz, 0.0);
  }
  EXPECT_TRUE(saw_ligen);
  EXPECT_TRUE(saw_cronos);
}

TEST(ServeDeterminism, BatchSizeChangesScheduleButNeverAnswers) {
  // Advice is a pure function of the request and the model; batch size
  // (and therefore cache hit patterns and latencies) must not leak into
  // the advised frequencies.
  ScopedGlobalPool pool(4);
  ServeConfig one = test_config();
  one.batch_size = 1;
  ServeConfig wide = test_config();
  wide.batch_size = 64;
  ServeLoop loop_one(shared_registry(), one);
  ServeLoop loop_wide(shared_registry(), wide);
  const auto responses_one = loop_one.run(shared_trace());
  const auto responses_wide = loop_wide.run(shared_trace());
  for (std::size_t i = 0; i < responses_one.size(); ++i) {
    if (!responses_one[i].shed && !responses_wide[i].shed) {
      EXPECT_EQ(responses_one[i].answer, responses_wide[i].answer) << i;
    }
  }
}

/// FNV-1a over the serving loop's observable output.
class Digest {
public:
  void add(std::string_view bytes) {
    add(static_cast<std::uint64_t>(bytes.size()));
    for (const char c : bytes) {
      byte(static_cast<unsigned char>(c));
    }
  }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { byte(value ? 1 : 0); }
  std::uint64_t value() const noexcept { return hash_; }

private:
  void byte(unsigned char c) {
    hash_ = (hash_ ^ c) * 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest_run(Digest& digest, const std::vector<AdviseResponse>& responses,
                const serve::ServeStats& stats) {
  for (const AdviseResponse& response : responses) {
    digest.add(response.shed);
    digest.add(response.cache_hit);
    digest.add(response.answer.freq_mhz);
    digest.add(response.answer.predicted_time_s);
    digest.add(response.answer.predicted_energy_j);
    digest.add(response.answer.predicted_speedup);
    digest.add(response.answer.predicted_norm_energy);
    digest.add(response.answer.budget_infeasible);
    digest.add(response.model);
    digest.add(response.arrival_s);
    digest.add(response.completion_s);
    digest.add(response.latency_s);
  }
  for (const std::uint64_t count :
       {stats.requests, stats.served, stats.shed, stats.cache_hits,
        stats.cache_misses, stats.cache_invalidations, stats.batches}) {
    digest.add(count);
  }
  for (const double value :
       {stats.p50_latency_s, stats.p99_latency_s, stats.max_latency_s,
        stats.sim_duration_s, stats.predicted_energy_j}) {
    digest.add(value);
  }
  for (const auto& [application, energy_j] : stats.energy_by_application) {
    digest.add(application);
    digest.add(energy_j);
  }
}

/// Bursts of 192 simultaneous requests, 30 ms apart, over 5 inputs per
/// application and 3 budgets: the 128-deep queue sheds the oldest 64 of
/// each burst, and the rest are served as two full 64-request batches,
/// each holding repeated keys of both applications.
std::vector<TimedRequest> burst_trace(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back({rng.uniform(8.0, 160.0), rng.uniform(2.0, 24.0),
                      rng.uniform(16.0, 10000.0)});
  }
  constexpr double kBudgets[] = {0.0, 0.03, 0.1};
  std::vector<TimedRequest> trace;
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 192; ++i) {
      TimedRequest timed;
      timed.arrival_s = 30e-3 * burst;
      timed.request.application = rng.uniform_int(2) == 0 ? "cronos" : "ligen";
      timed.request.features = inputs[rng.uniform_int(inputs.size())];
      timed.request.max_slowdown = kBudgets[rng.uniform_int(3)];
      trace.push_back(std::move(timed));
    }
  }
  return trace;
}

/// Two runs of one loop over burst traces, with the Cronos model
/// re-registered between them; the digest covers both.
std::uint64_t mixed_burst_digest(std::size_t threads) {
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(21, "cronos"));
  registry.put(serve_test::synthetic_artifact(22, "ligen"));
  ScopedGlobalPool pool(threads);
  ServeConfig config;
  config.batch_size = 64;
  config.admission_bound = 128;
  config.cache_capacity = 16;
  ServeLoop loop(registry, config);

  Digest digest;
  const auto first = loop.run(burst_trace(31));
  const serve::ServeStats first_stats = loop.stats();
  digest_run(digest, first, first_stats);
  registry.put(serve_test::synthetic_artifact(23, "cronos"));
  const auto second = loop.run(burst_trace(32));
  digest_run(digest, second, loop.stats());

  // The trace must reach every path the digest is meant to pin.
  EXPECT_EQ(first_stats.served, 64 * first_stats.batches);
  EXPECT_GT(first_stats.shed, 0u);
  EXPECT_GT(first_stats.cache_hits, 0u);
  EXPECT_GT(first_stats.cache_misses, 0u);
  EXPECT_GT(loop.stats().cache_invalidations, 0u);
  EXPECT_EQ(loop.stats().energy_by_application.size(), 2u);
  return digest.value();
}

TEST(ServingDeterminism, MixedBurstDigestIsPinned) {
  // Generated before the per-batch slots replaced the loop's maps.
  constexpr std::uint64_t kPinned = 0xe5f57da7852b87e1ULL;
  for (const std::size_t threads : {1, 2, 8}) {
    EXPECT_EQ(mixed_burst_digest(threads), kPinned) << threads << " threads";
  }
}

} // namespace
