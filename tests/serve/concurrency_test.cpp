// Robustness contracts: shed accounting under burst, registry reads
// racing registration, and cache-off bit-exactness.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseRequest;
using serve::AdviseResponse;
using serve::Advisor;
using serve::ModelKey;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::TimedRequest;
using serve_test::synthetic_artifact;

TimedRequest at(double arrival_s, double a, double b, double c,
                double budget = 0.03) {
  TimedRequest timed;
  timed.arrival_s = arrival_s;
  timed.request.application = "cronos";
  timed.request.features = {a, b, c};
  timed.request.max_slowdown = budget;
  return timed;
}

ServeConfig burst_config() {
  ServeConfig config;
  config.batch_size = 1;
  config.admission_bound = 1;
  config.cache_capacity = 0; // every request misses
  config.hit_cost_s = 0.001;
  config.miss_cost_s = 0.5;
  return config;
}

TEST(ConcurrencyTest, ShedAccountingUnderBurstIsExact) {
  ModelRegistry registry;
  registry.put(synthetic_artifact(21));

  // Hand-simulated: r0 dispatches alone at t=0 and serves until 0.5.
  // While it runs, r1 and r2 are each shed by the next arrival (queue
  // bound 1, shed-oldest), leaving r3 to dispatch at 0.5. r4 arrives at
  // exactly 1.0, when the server frees up.
  const std::vector<TimedRequest> trace = {
      at(0.00, 10, 4, 100), at(0.01, 20, 4, 100), at(0.02, 30, 4, 100),
      at(0.03, 40, 4, 100), at(1.00, 50, 4, 100),
  };
  ServeLoop loop(registry, burst_config());
  const std::vector<AdviseResponse> responses = loop.run(trace);

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_FALSE(responses[0].shed);
  EXPECT_TRUE(responses[1].shed);
  EXPECT_TRUE(responses[2].shed);
  EXPECT_FALSE(responses[3].shed);
  EXPECT_FALSE(responses[4].shed);

  EXPECT_EQ(responses[0].completion_s, 0.5);
  EXPECT_EQ(responses[1].completion_s, 0.02); // shed when r2 arrived
  EXPECT_EQ(responses[2].completion_s, 0.03); // shed when r3 arrived
  EXPECT_EQ(responses[3].completion_s, 1.0);
  EXPECT_EQ(responses[3].latency_s, 1.0 - 0.03);
  EXPECT_EQ(responses[4].completion_s, 1.5);

  // Shed responses carry no answer or provenance.
  EXPECT_EQ(responses[1].answer, serve::AdviseAnswer{});
  EXPECT_TRUE(responses[1].model.empty());

  const serve::ServeStats& stats = loop.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.served + stats.shed, stats.requests);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.sim_duration_s, 1.5);
}

TEST(ConcurrencyTest, UnboundedQueueNeverSheds) {
  ModelRegistry registry;
  registry.put(synthetic_artifact(22));
  ServeConfig config = burst_config();
  config.admission_bound = 0; // unbounded
  std::vector<TimedRequest> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(at(0.001 * i, 10.0 + i, 4, 100));
  }
  ServeLoop loop(registry, config);
  for (const AdviseResponse& response : loop.run(trace)) {
    EXPECT_FALSE(response.shed);
  }
  EXPECT_EQ(loop.stats().shed, 0u);
}

TEST(ConcurrencyTest, ZeroCapacityCacheMatchesDirectAdviceBitForBit) {
  ModelRegistry registry;
  registry.put(synthetic_artifact(23));
  const auto artifact = registry.require(ModelKey{"cronos", "v100"});

  // A trace with heavy repetition: with a cache these would mostly hit.
  std::vector<TimedRequest> trace;
  for (int i = 0; i < 60; ++i) {
    trace.push_back(at(0.001 * i, 10.0 + (i % 5), 4, 100));
  }

  ServeConfig no_cache;
  no_cache.cache_capacity = 0;
  no_cache.admission_bound = 0;
  ServeLoop loop(registry, no_cache);
  const std::vector<AdviseResponse> responses = loop.run(trace);

  EXPECT_EQ(loop.stats().cache_hits, 0u);
  EXPECT_EQ(loop.stats().cache_misses, 60u);
  const Advisor advisor;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_FALSE(responses[i].cache_hit);
    EXPECT_EQ(responses[i].answer,
              advisor.advise(*artifact, trace[i].request))
        << i;
  }

  // Turning the cache on changes hit flags and timing, never answers.
  ServeConfig cached = no_cache;
  cached.cache_capacity = 128;
  ServeLoop cached_loop(registry, cached);
  const std::vector<AdviseResponse> cached_responses =
      cached_loop.run(trace);
  EXPECT_GT(cached_loop.stats().cache_hits, 0u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(cached_responses[i].answer, responses[i].answer) << i;
  }
}

TEST(ConcurrencyTest, RegistryReadsNeverTearDuringRegistration) {
  ModelRegistry registry;
  registry.put(synthetic_artifact(31));
  const ModelKey key{"cronos", "v100"};

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (std::uint64_t round = 0; round < 200; ++round) {
      registry.put(synthetic_artifact(31 + (round % 2)));
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      const std::vector<double> probe = {40, 8, 500};
      while (!stop.load()) {
        const auto artifact = registry.require(key);
        // An artifact is immutable once registered: whichever version we
        // got must be fully formed and usable.
        if (artifact->kind != serve::ModelKind::kDomainSpecific ||
            artifact->ds == nullptr || !artifact->ds->trained() ||
            artifact->feature_names.size() != 3) {
          failures.fetch_add(1);
          break;
        }
        const core::Prediction pred = artifact->ds->predict(
            probe, artifact->freqs_mhz, artifact->default_freq_mhz);
        if (pred.speedup.size() != artifact->freqs_mhz.size()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.keys(), (std::vector<ModelKey>{key}));
}

} // namespace
