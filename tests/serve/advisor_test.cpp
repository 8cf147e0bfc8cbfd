// The advisor's pick policy, cache-key quantization, and single-vs-batch
// bit-identity.
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/ledger.hpp"
#include "serve/advisor.hpp"
#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseAnswer;
using serve::AdviseRequest;
using serve::Advisor;
using serve::cache_key;
using serve::ModelKey;
using serve::pick_within_slowdown;
using serve_test::synthetic_artifact;

// A hand-built prediction where every point is Pareto-optimal: speedup
// ascends while normalized energy ascends too.
core::Prediction pareto_prediction() {
  core::Prediction pred;
  pred.freqs_mhz = {600, 800, 1000, 1400};
  pred.time_s = {4.0, 3.0, 2.0, 1.0};
  pred.energy_j = {50, 60, 80, 100};
  pred.speedup = {0.90, 0.95, 0.99, 1.00};
  pred.norm_energy = {0.50, 0.60, 0.80, 1.00};
  return pred;
}

TEST(AdvisorTest, PickTakesCheapestPointWithinBudget) {
  const core::Prediction pred = pareto_prediction();
  // 3% budget admits speedups 0.99 and 1.00; 0.99 is cheaper.
  EXPECT_EQ(pick_within_slowdown(pred, 0.03), 2u);
  // 10% admits everything; 0.90 is cheapest.
  EXPECT_EQ(pick_within_slowdown(pred, 0.10), 0u);
  // 0% admits only the baseline point.
  EXPECT_EQ(pick_within_slowdown(pred, 0.0), 3u);
}

TEST(AdvisorTest, PickFallsBackToFastestWhenNothingQualifies) {
  core::Prediction pred = pareto_prediction();
  for (double& s : pred.speedup) {
    s -= 0.5; // every point violates any sane budget
  }
  EXPECT_EQ(pick_within_slowdown(pred, 0.0), 3u);
}

TEST(AdvisorTest, PickReportsBudgetInfeasibility) {
  bool infeasible = true;
  EXPECT_EQ(pick_within_slowdown(pareto_prediction(), 0.03, &infeasible),
            2u);
  EXPECT_FALSE(infeasible);

  core::Prediction shifted = pareto_prediction();
  for (double& s : shifted.speedup) {
    s -= 0.5; // front slowdowns become {0.60, 0.55, 0.51, 0.50}
  }
  // A 30% budget admits nothing: the answer falls back to the fastest
  // front point (index 3) with the flag raised.
  EXPECT_EQ(pick_within_slowdown(shifted, 0.30, &infeasible), 3u);
  EXPECT_TRUE(infeasible);
  // 55% re-admits slowdowns {0.55, 0.51, 0.50}; the cheapest of their
  // energies {0.60, 0.80, 1.00} is index 1.
  EXPECT_EQ(pick_within_slowdown(shifted, 0.55, &infeasible), 1u);
  EXPECT_FALSE(infeasible);
}

TEST(AdvisorTest, AdviseFlagsInfeasibleBudget) {
  // Serving over a clock range capped below the baseline: every
  // predicted speedup is < 1, so a 0% budget admits no front point.
  serve::ModelArtifact artifact = synthetic_artifact(3);
  artifact.freqs_mhz = {600, 800, 1000};

  AdviseRequest request;
  request.application = "cronos";
  request.features = {16, 8, 100};
  request.max_slowdown = 0.0;
  const AdviseAnswer tight = Advisor{}.advise(artifact, request);
  EXPECT_TRUE(tight.budget_infeasible);
  // The fallback is the fastest front point, not the cheapest.
  EXPECT_DOUBLE_EQ(tight.freq_mhz, 1000.0);

  request.max_slowdown = 0.9; // loose enough for every point
  const AdviseAnswer loose = Advisor{}.advise(artifact, request);
  EXPECT_FALSE(loose.budget_infeasible);
}

TEST(AdvisorTest, CacheKeyGolden) {
  AdviseRequest request;
  request.application = "cronos";
  request.features = {120, 48, 48};
  request.max_slowdown = 0.03;
  EXPECT_EQ(cache_key(ModelKey{"cronos", "v100"}, request, 1.0),
            "cronos/v100|b0.029999999999999999|q1|120|48|48");
}

TEST(AdvisorTest, CacheKeyQuantizesFeatures) {
  AdviseRequest a;
  a.application = "ligen";
  a.features = {119.6, 48.4};
  AdviseRequest b = a;
  b.features = {120.2, 47.6};
  const ModelKey key{"ligen", "v100"};
  // Both quantize to (120, 48) at step 1.
  EXPECT_EQ(cache_key(key, a, 1.0), cache_key(key, b, 1.0));
  // A finer step separates them again.
  EXPECT_NE(cache_key(key, a, 0.25), cache_key(key, b, 0.25));
}

TEST(AdvisorTest, CacheKeyKeepsBudgetExact) {
  AdviseRequest a;
  a.application = "ligen";
  a.features = {100};
  a.max_slowdown = 0.03;
  AdviseRequest b = a;
  b.max_slowdown = 0.030000001; // must NOT share an answer
  const ModelKey key{"ligen", "v100"};
  EXPECT_NE(cache_key(key, a, 1.0), cache_key(key, b, 1.0));
}

TEST(AdvisorTest, BatchMatchesSingleBitForBit) {
  const serve::ModelArtifact artifact = synthetic_artifact(11);
  Rng rng(123);
  std::vector<AdviseRequest> requests;
  for (int i = 0; i < 20; ++i) {
    AdviseRequest request;
    request.application = "cronos";
    request.features = {rng.uniform(8.0, 160.0), rng.uniform(2.0, 24.0),
                        rng.uniform(16.0, 10000.0)};
    request.max_slowdown = rng.uniform(0.0, 0.2);
    requests.push_back(std::move(request));
  }

  const Advisor advisor;
  const std::vector<AdviseAnswer> batched =
      advisor.advise_batch(artifact, requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], advisor.advise(artifact, requests[i])) << i;
  }
}

TEST(AdvisorTest, BatchIsPoolSizeInvariant) {
  const serve::ModelArtifact artifact = synthetic_artifact(12);
  std::vector<AdviseRequest> requests;
  for (int i = 0; i < 32; ++i) {
    AdviseRequest request;
    request.application = "cronos";
    request.features = {10.0 + i, 4.0, 100.0 * (i + 1)};
    requests.push_back(std::move(request));
  }
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = Advisor(&pool1).advise_batch(artifact, requests);
  const auto wide = Advisor(&pool8).advise_batch(artifact, requests);
  EXPECT_EQ(serial, wide);
}

/// One request per kind of non-finite input: a NaN feature, an infinite
/// feature and an infinite slowdown budget.
std::vector<AdviseRequest> non_finite_requests() {
  std::vector<AdviseRequest> out(3);
  for (AdviseRequest& request : out) {
    request.application = "cronos";
    request.features = {1, 2, 3};
  }
  out[0].features[1] = std::numeric_limits<double>::quiet_NaN();
  out[1].features[2] = std::numeric_limits<double>::infinity();
  out[2].max_slowdown = std::numeric_limits<double>::infinity();
  return out;
}

TEST(AdvisorTest, RejectsMalformedRequests) {
  const serve::ModelArtifact artifact = synthetic_artifact(13);
  const Advisor advisor;

  AdviseRequest wrong_app;
  wrong_app.application = "ligen";
  wrong_app.features = {1, 2, 3};
  EXPECT_THROW(advisor.advise(artifact, wrong_app), contract_error);

  AdviseRequest wrong_arity;
  wrong_arity.application = "cronos";
  wrong_arity.features = {1, 2};
  EXPECT_THROW(advisor.advise(artifact, wrong_arity), contract_error);

  AdviseRequest negative_budget;
  negative_budget.application = "cronos";
  negative_budget.features = {1, 2, 3};
  negative_budget.max_slowdown = -0.1;
  EXPECT_THROW(advisor.advise(artifact, negative_budget), contract_error);

  // A NaN feature would reach std::llround in cache_key (unspecified) and
  // the forests; an infinite budget admits every clock.
  for (const AdviseRequest& non_finite : non_finite_requests()) {
    EXPECT_THROW(advisor.advise(artifact, non_finite), contract_error);
  }
}

TEST(AdvisorTest, ServeLoopRejectsNonFiniteRequestsUpFront) {
  // The loop checks the whole trace before serving any of it: a bad
  // request at the end leaves nothing served and nothing recorded.
  serve::ModelRegistry registry;
  registry.put(synthetic_artifact(13));
  for (const AdviseRequest& non_finite : non_finite_requests()) {
    obs::Ledger ledger;
    serve::ServeConfig config;
    config.ledger = &ledger;
    serve::ServeLoop loop(registry, config);
    std::vector<serve::TimedRequest> requests(2);
    requests[0].request.application = "cronos";
    requests[0].request.features = {1, 2, 3};
    requests[1].arrival_s = 1e-3;
    requests[1].request = non_finite;
    EXPECT_THROW(loop.run(requests), contract_error);
    EXPECT_TRUE(ledger.requests().empty());
  }
}

} // namespace
