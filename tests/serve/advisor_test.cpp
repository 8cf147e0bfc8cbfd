// The advisor's pick policy, cache-key quantization, and single-vs-batch
// bit-identity.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
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

/// The key as first formulated: "%.17g" through snprintf for the budget
/// and the step, std::to_string for each quantized feature. cache_key must
/// keep producing these bytes.
std::string printf_reference_key(const ModelKey& key,
                                 const AdviseRequest& request,
                                 double quant_step) {
  const auto exact = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::string(buffer);
  };
  std::string out = key.to_string();
  out += "|b" + exact(request.max_slowdown);
  out += "|q" + exact(quant_step);
  for (const double f : request.features) {
    out += "|" + std::to_string(std::llround(f / quant_step));
  }
  return out;
}

TEST(AdvisorTest, CacheKeyMatchesPrintfReference) {
  constexpr double kInt64Edge = 0x1p63;
  const ModelKey keys[] = {{"cronos", "v100"},
                           {"ligen", "mi100"},
                           {"an-application-name-past-the-sso", "dev"}};
  Rng rng(0x5EED);
  const auto budget = [&]() -> double {
    switch (rng.uniform_int(6)) {
    case 0:
      return rng.uniform(0.0, 0.5);
    case 1: // subnormal (or zero): exponent bits all clear
      return std::bit_cast<double>(rng() >> 12);
    case 2:
      return -0.0;
    case 3: // integral, below and past 2^53
      return static_cast<double>(
          rng.uniform_int(rng.uniform_int(2) == 0 ? 1000 : 1ULL << 54));
    case 4:
      return 1e300 * rng.uniform(0.5, 2.0);
    default: // any finite non-negative bit pattern
      for (;;) {
        const double value = std::bit_cast<double>(rng() >> 1);
        if (std::isfinite(value)) {
          return value;
        }
      }
    }
  };
  const auto step = [&]() -> double {
    switch (rng.uniform_int(4)) {
    case 0:
      return 1.0;
    case 1:
      return 0.25;
    case 2:
      return std::pow(10.0, static_cast<double>(rng.uniform_int(13)) - 6.0);
    default:
      return rng.uniform(1e-3, 10.0);
    }
  };
  const auto feature = [&](double quant_step) -> double {
    double value = 0.0;
    switch (rng.uniform_int(5)) {
    case 0:
      value = rng.uniform(-1e4, 1e4);
      break;
    case 1: // an exact tie: llround rounds it away from zero
      value = (static_cast<double>(rng.uniform_int(200)) - 99.5) * quant_step;
      break;
    case 2:
      value = -0.0;
      break;
    case 3: // near the int64 edge, either sign
      value = (rng.uniform_int(2) == 0 ? 1.0 : -1.0) *
              rng.uniform(0x1p62, kInt64Edge) * quant_step;
      break;
    default:
      value = static_cast<double>(rng.uniform_int(100000));
    }
    return std::abs(value / quant_step) < kInt64Edge ? value : 0.0;
  };

  for (int i = 0; i < 100000; ++i) {
    const ModelKey& key = keys[rng.uniform_int(std::size(keys))];
    AdviseRequest request;
    request.application = key.application;
    request.max_slowdown = budget();
    const double quant_step = step();
    request.features.resize(1 + rng.uniform_int(6));
    for (double& f : request.features) {
      f = feature(quant_step);
    }
    ASSERT_EQ(cache_key(key, request, quant_step),
              printf_reference_key(key, request, quant_step))
        << "request " << i;
  }
}

TEST(AdvisorTest, CacheKeyRejectsFeaturesOutsideInt64) {
  const ModelKey key{"cronos", "v100"};
  AdviseRequest request;
  request.application = "cronos";
  request.features = {1, 2, 3};
  // llround is unspecified past int64: +-1e300 once both keyed as
  // INT64_MIN, so each could be served the other's answer.
  for (const double outside : {1e300, -1e300, 0x1p63, -0x1p63}) {
    AdviseRequest wide = request;
    wide.features[1] = outside;
    EXPECT_THROW(cache_key(key, wide, 1.0), contract_error) << outside;
  }
  // A step that is not finite keyed every request alike ("qinf|0|0|0");
  // one that pushes f/step past int64 is out of range too.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double quant_step :
       {inf, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min()}) {
    EXPECT_THROW(cache_key(key, request, quant_step), contract_error)
        << quant_step;
  }
  // The largest magnitudes inside the range still key exactly.
  request.features = {0x1p63 - 1024, -(0x1p63 - 1024), 0};
  EXPECT_EQ(cache_key(key, request, 1.0),
            "cronos/v100|b0.029999999999999999|q1|9223372036854774784|"
            "-9223372036854774784|0");
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
  const auto batch_on = [&](std::size_t threads) {
    ScopedGlobalPool pool(threads);
    return Advisor{}.advise_batch(artifact, requests);
  };
  EXPECT_EQ(batch_on(1), batch_on(8));
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

TEST(AdvisorTest, ServeLoopRejectsOutOfRangeFeaturesUpFront) {
  // A finite feature can still quantize past int64: 1e19 at step 1, or an
  // ordinary 1000 at step 1e-16. The loop rejects it before serving the
  // batches ahead of it, so stats, cache and ledger keep the previous
  // run's state.
  serve::ModelRegistry registry;
  registry.put(synthetic_artifact(13));
  for (const auto& [quant_step, feature] :
       {std::pair{1.0, 1e19}, std::pair{1e-16, 1000.0}}) {
    obs::Ledger ledger;
    serve::ServeConfig config;
    config.cache_quant_step = quant_step;
    config.ledger = &ledger;
    serve::ServeLoop loop(registry, config);
    std::vector<serve::TimedRequest> requests(200);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].request.application = "cronos";
      requests[i].request.features = {1.0 + static_cast<double>(i % 7), 2, 3};
    }
    loop.run(std::span(requests).first(10));
    const serve::ServeStats before = loop.stats();
    const std::size_t cached = loop.cache().size();
    ASSERT_EQ(ledger.requests().size(), 10U);

    requests.back().request.features[1] = feature;
    EXPECT_THROW(loop.run(requests), contract_error) << quant_step;
    EXPECT_EQ(loop.stats().requests, before.requests);
    EXPECT_EQ(loop.stats().served, before.served);
    EXPECT_EQ(loop.stats().batches, before.batches);
    EXPECT_EQ(loop.stats().cache_hits, before.cache_hits);
    EXPECT_EQ(loop.stats().cache_misses, before.cache_misses);
    EXPECT_EQ(loop.stats().predicted_energy_j, before.predicted_energy_j);
    EXPECT_EQ(loop.stats().energy_by_application,
              before.energy_by_application);
    EXPECT_EQ(loop.cache().size(), cached);
    EXPECT_EQ(ledger.requests().size(), 10U);
  }
}

TEST(AdvisorTest, ServeLoopRejectsWrongFeatureCountUpFront) {
  // The feature count is checked against each application's model with
  // the whole trace: a short request at the end leaves the first one
  // neither cached nor recorded.
  serve::ModelRegistry registry;
  registry.put(synthetic_artifact(13));
  obs::Ledger ledger;
  serve::ServeConfig config;
  config.ledger = &ledger;
  serve::ServeLoop loop(registry, config);
  std::vector<serve::TimedRequest> requests(2);
  requests[0].request.application = "cronos";
  requests[0].request.features = {1, 2, 3};
  requests[1].arrival_s = 1e-3;
  requests[1].request.application = "cronos";
  requests[1].request.features = {1, 2};
  EXPECT_THROW(loop.run(requests), contract_error);
  EXPECT_EQ(loop.cache().size(), 0U);
  EXPECT_TRUE(ledger.requests().empty());
}

TEST(AdvisorTest, ServeLoopRejectsUnregisteredApplicationUpFront) {
  serve::ModelRegistry registry;
  registry.put(synthetic_artifact(13));
  obs::Ledger ledger;
  serve::ServeConfig config;
  config.ledger = &ledger;
  serve::ServeLoop loop(registry, config);
  std::vector<serve::TimedRequest> requests(2);
  requests[0].request.application = "cronos";
  requests[0].request.features = {1, 2, 3};
  requests[1].arrival_s = 1e-3;
  requests[1].request.application = "ligen";
  requests[1].request.features = {1, 2, 3};
  EXPECT_THROW(loop.run(requests), contract_error);
  EXPECT_EQ(loop.cache().size(), 0U);
  EXPECT_TRUE(ledger.requests().empty());
}

TEST(AdvisorTest, ServeLoopRejectsNonFiniteQuantStep) {
  serve::ModelRegistry registry;
  registry.put(synthetic_artifact(13));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double quant_step :
       {inf, -inf, std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    serve::ServeConfig config;
    config.cache_quant_step = quant_step;
    EXPECT_THROW(serve::ServeLoop(registry, config), contract_error)
        << quant_step;
  }
}

} // namespace
