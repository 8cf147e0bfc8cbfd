// Cross-component serving tests (grouped suite, heavy tier): the
// train-once / load-anywhere contract against really-trained models and
// an end-to-end serve run.
#include <array>
#include <cstdio>

#include <gtest/gtest.h>

#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseRequest;
using serve::Advisor;
using serve::ModelArtifact;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::ServeLoop;

const ModelArtifact& shared_cronos_artifact() {
  static const ModelArtifact artifact =
      serve_test::train_compact_artifact("cronos");
  return artifact;
}

TEST(ServeIntegration, LoadedModelAnswersExactlyLikeTheTrainedOne) {
  const ModelArtifact& trained = shared_cronos_artifact();
  const std::string path = testing::TempDir() + "dsem_serve_cronos.json";
  trained.save_file(path);
  const ModelArtifact loaded = ModelArtifact::load_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.key, trained.key);
  EXPECT_EQ(loaded.feature_names, trained.feature_names);
  EXPECT_EQ(loaded.freqs_mhz, trained.freqs_mhz);
  EXPECT_EQ(loaded.default_freq_mhz, trained.default_freq_mhz);

  const Advisor advisor;
  // Probe across the training envelope, including the example's default
  // target (120x48x48 -> the cronos feature vector).
  for (const auto& dims : {std::array{120, 48, 48}, std::array{10, 4, 4},
                           std::array{160, 64, 64}, std::array{77, 31, 13}}) {
    const core::CronosWorkload workload(
        cronos::GridDims{dims[0], dims[1], dims[2]}, 10);
    for (const double budget : {0.0, 0.01, 0.03, 0.10}) {
      AdviseRequest request;
      request.application = "cronos";
      request.features = workload.domain_features();
      request.max_slowdown = budget;
      EXPECT_EQ(advisor.advise(trained, request),
                advisor.advise(loaded, request))
          << workload.name() << " @ " << budget;
    }
  }
}

TEST(ServeIntegration, EndToEndServeRunHoldsItsInvariants) {
  ModelRegistry registry;
  registry.put(shared_cronos_artifact());
  registry.put(serve_test::train_compact_artifact("ligen"));

  serve::TrafficConfig traffic;
  traffic.requests = 2000;
  traffic.arrival_rate_hz = 3000.0;
  traffic.population = 48;
  const auto trace = serve::generate_trace(traffic);

  ServeConfig config;
  config.batch_size = 16;
  config.admission_bound = 64;
  config.cache_capacity = 256;
  ServeLoop loop(registry, config);
  const auto responses = loop.run(trace);
  const serve::ServeStats& stats = loop.stats();

  EXPECT_EQ(stats.requests, 2000u);
  EXPECT_EQ(stats.served + stats.shed, stats.requests);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.served);
  EXPECT_LE(stats.p50_latency_s, stats.p99_latency_s);
  EXPECT_LE(stats.p99_latency_s, stats.max_latency_s);
  EXPECT_GT(stats.sim_duration_s, 0.0);
  EXPECT_GT(stats.wall_s, 0.0);
  EXPECT_GT(stats.throughput_rps(), 0.0);

  for (const auto& response : responses) {
    if (response.shed) {
      EXPECT_TRUE(response.model.empty());
      continue;
    }
    EXPECT_GT(response.answer.freq_mhz, 0.0);
    EXPECT_GT(response.answer.predicted_speedup, 0.0);
    EXPECT_GE(response.completion_s, response.arrival_s);
    EXPECT_EQ(response.latency_s,
              response.completion_s - response.arrival_s);
    EXPECT_NE(response.model.find("@"), std::string::npos);
  }
}

} // namespace
