// The serving loop's Pareto-front memo: an answer-cache miss is answered
// from its exact input's front, computed once per distinct input and
// memoised under the features' bit patterns. Every answer must equal
// Advisor::advise bit for bit, whatever the pool size, the cache capacity
// or the registration sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "serve/advisor.hpp"
#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseAnswer;
using serve::AdviseRequest;
using serve::AdviseResponse;
using serve::Advisor;
using serve::ModelArtifact;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::TimedRequest;

constexpr double kBudgets[] = {0.0, 0.02, 0.05, 0.2};

/// `inputs` distinct Cronos-shaped inputs, each asked under all four
/// budgets: budget-major, so every input's later budgets miss the answer
/// cache and find its front memoised. Arrivals are spaced `gap_s` apart.
std::vector<TimedRequest> budget_trace(std::size_t inputs, double gap_s,
                                       const std::string& app = "cronos") {
  Rng rng(0xF207);
  std::vector<std::vector<double>> features;
  for (std::size_t i = 0; i < inputs; ++i) {
    features.push_back({rng.uniform(8.0, 160.0), rng.uniform(2.0, 24.0),
                        rng.uniform(16.0, 10000.0)});
  }
  std::vector<TimedRequest> trace;
  for (const double budget : kBudgets) {
    for (const std::vector<double>& input : features) {
      TimedRequest timed;
      timed.arrival_s = gap_s * static_cast<double>(trace.size());
      timed.request.application = app;
      timed.request.features = input;
      timed.request.max_slowdown = budget;
      trace.push_back(std::move(timed));
    }
  }
  return trace;
}

/// Unbounded admission: nothing is shed, so every response has an answer.
ServeConfig unshed_config(std::size_t cache_capacity = 4096) {
  ServeConfig config;
  config.admission_bound = 0;
  config.cache_capacity = cache_capacity;
  return config;
}

/// Every response equals Advisor::advise against the artifact its
/// provenance names.
void expect_answers_match_advise(
    const std::vector<AdviseResponse>& responses,
    const std::vector<TimedRequest>& trace,
    const std::vector<std::shared_ptr<const ModelArtifact>>& artifacts) {
  ASSERT_EQ(responses.size(), trace.size());
  const Advisor advisor;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_FALSE(responses[i].shed) << i;
    const auto artifact = std::find_if(
        artifacts.begin(), artifacts.end(), [&](const auto& candidate) {
          return responses[i].model ==
                 candidate->key.to_string() + "@" + candidate->origin;
        });
    ASSERT_NE(artifact, artifacts.end()) << responses[i].model;
    EXPECT_EQ(responses[i].answer,
              advisor.advise(**artifact, trace[i].request))
        << "request " << i;
  }
}

TEST(ServeFronts, FrontCarriesThePredictionBitForBit) {
  // The front stores time, energy and the baselines; its speedup and
  // normalized energy must come back as the prediction's own bits.
  const ModelArtifact plain = serve_test::synthetic_artifact(41);
  const ModelArtifact hybrid = serve_test::synthetic_hybrid_artifact(42);
  for (const ModelArtifact* artifact : {&plain, &hybrid}) {
    for (const std::vector<double>& features :
         {std::vector<double>{16, 8, 100}, std::vector<double>{40, 16, 16},
          std::vector<double>{120, 48, 48}}) {
      const core::Prediction pred =
          artifact->predict(features, artifact->freqs_mhz);
      const std::vector<std::size_t> indices = pred.pareto_indices();
      const serve::ParetoFront front = serve::pareto_front_of(pred);
      ASSERT_EQ(front.points.size(), indices.size());
      for (std::size_t k = 0; k < indices.size(); ++k) {
        const std::size_t i = indices[k];
        EXPECT_EQ(front.points[k].freq_mhz, pred.freqs_mhz[i]);
        EXPECT_EQ(front.points[k].time_s, pred.time_s[i]);
        EXPECT_EQ(front.points[k].energy_j, pred.energy_j[i]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(front.speedup(k)),
                  std::bit_cast<std::uint64_t>(pred.speedup[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(front.norm_energy(k)),
                  std::bit_cast<std::uint64_t>(pred.norm_energy[i]));
      }
      for (const double budget : kBudgets) {
        bool infeasible = false;
        const std::size_t i =
            serve::pick_within_slowdown(pred, budget, &infeasible);
        const AdviseAnswer answer = serve::pick_answer(front, budget);
        EXPECT_EQ(answer.freq_mhz, pred.freqs_mhz[i]);
        EXPECT_EQ(answer.predicted_speedup, pred.speedup[i]);
        EXPECT_EQ(answer.predicted_norm_energy, pred.norm_energy[i]);
        EXPECT_EQ(answer.budget_infeasible, infeasible);
      }
    }
  }
}

TEST(ServeFronts, EveryAnswerEqualsAdviseForPools1_2_8) {
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(43, "cronos"));
  registry.put(serve_test::synthetic_artifact(44, "ligen"));
  const std::vector<std::shared_ptr<const ModelArtifact>> artifacts = {
      registry.require({"cronos", "v100"}),
      registry.require({"ligen", "v100"})};
  // Both applications interleaved in full batches: duplicate inputs,
  // memoised fronts and fresh ones in the same batch.
  std::vector<TimedRequest> trace = budget_trace(24, 1e-6);
  for (std::size_t i = 1; i < trace.size(); i += 3) {
    trace[i].request.application = "ligen";
  }

  std::vector<AdviseResponse> serial;
  for (const std::size_t threads : {1, 2, 8}) {
    ScopedGlobalPool pool(threads);
    ServeConfig config = unshed_config();
    config.batch_size = 16;
    ServeLoop loop(registry, config);
    const std::vector<AdviseResponse> responses = loop.run(trace);
    expect_answers_match_advise(responses, trace, artifacts);
    if (threads == 1) {
      serial = responses;
    } else {
      EXPECT_EQ(responses, serial) << threads << " threads";
    }
  }
}

TEST(ServeFronts, OneFrontPerDistinctExactInput) {
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(45));
  constexpr std::size_t kInputs = 20;
  const std::vector<TimedRequest> trace = budget_trace(kInputs, 1e-3);

  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  ServeLoop loop(registry, unshed_config());
  loop.run(trace);
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  metrics::set_enabled(was_enabled);
  metrics::Registry::global().clear();

  // Every request misses the answer cache (each (input, budget) pair is
  // asked once), yet each input's front is computed once.
  EXPECT_EQ(loop.stats().cache_misses, 4 * kInputs);
  EXPECT_EQ(loop.stats().fronts, kInputs);
  EXPECT_EQ(loop.fronts().size(), kInputs);
  const auto counter = std::find_if(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const metrics::CounterSnapshot& c) { return c.name == "serve.fronts"; });
  ASSERT_NE(counter, snapshot.counters.end());
  EXPECT_EQ(counter->total, kInputs);

  // A second run finds every front and every answer cached.
  loop.run(trace);
  EXPECT_EQ(loop.stats().cache_hits, 4 * kInputs);
  EXPECT_EQ(loop.stats().fronts, 0u);
}

TEST(ServeFronts, QuantizedTwinsAndSignedZerosGetTheirOwnFronts) {
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(46));
  const auto artifact = registry.require({"cronos", "v100"});
  // {16.2, ...} quantizes like {16.0, ...} at step 1, and -0.0 like 0.0:
  // each pair shares a cache_key under one budget. Asked under different
  // budgets, each request misses the answer cache and must be answered
  // from its own input's front.
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      pairs = {{{16.0, 8.0, 100.0}, {16.2, 8.0, 100.0}},
               {{16.0, 0.0, 100.0}, {16.0, -0.0, 100.0}}};
  for (const auto& [a, b] : pairs) {
    AdviseRequest request_a;
    request_a.application = "cronos";
    request_a.features = a;
    request_a.max_slowdown = 0.2;
    AdviseRequest request_b = request_a;
    request_b.features = b;
    ASSERT_EQ(serve::cache_key(artifact->key, request_a, 1.0),
              serve::cache_key(artifact->key, request_b, 1.0));
    ASSERT_NE(serve::front_key(artifact->key, a),
              serve::front_key(artifact->key, b));
    request_b.max_slowdown = 0.0;

    std::vector<TimedRequest> trace(2);
    trace[0].request = request_a;
    trace[1].arrival_s = 1e-3;
    trace[1].request = request_b;
    ServeLoop loop(registry, unshed_config());
    const std::vector<AdviseResponse> responses = loop.run(trace);
    expect_answers_match_advise(responses, trace, {artifact});
    EXPECT_EQ(loop.stats().fronts, 2u);

    // The same two requests in one batch, and through advise_batch.
    trace[1].arrival_s = 0.0;
    ServeLoop batched(registry, unshed_config());
    expect_answers_match_advise(batched.run(trace), trace, {artifact});
    EXPECT_EQ(batched.stats().batches, 1u);
    EXPECT_EQ(batched.stats().fronts, 2u);
    const std::vector<AdviseRequest> requests = {request_a, request_b};
    const std::vector<AdviseAnswer> answers =
        Advisor{}.advise_batch(*artifact, requests);
    EXPECT_EQ(answers[0], Advisor{}.advise(*artifact, request_a));
    EXPECT_EQ(answers[1], Advisor{}.advise(*artifact, request_b));
  }
}

/// A regressor that runs a callback before every curve prediction, then
/// predicts like the forest it wraps. It lets a test re-register a model
/// at a deterministic point inside ServeLoop::run.
class HookedRegressor final : public ml::Regressor {
public:
  HookedRegressor(std::unique_ptr<ml::Regressor> inner,
                  std::shared_ptr<std::function<void()>> hook)
      : inner_(std::move(inner)), hook_(std::move(hook)) {}

  void fit(const ml::Matrix& x, std::span<const double> y) override {
    inner_->fit(x, y);
  }
  double predict_one(std::span<const double> x) const override {
    return inner_->predict_one(x);
  }
  std::vector<double>
  predict_sweep(std::span<const double> prefix,
                std::span<const double> values) const override {
    (*hook_)();
    return inner_->predict_sweep(prefix, values);
  }
  std::unique_ptr<ml::Regressor> clone() const override {
    return std::make_unique<HookedRegressor>(inner_->clone(), hook_);
  }
  std::string name() const override { return inner_->name(); }

private:
  std::unique_ptr<ml::Regressor> inner_;
  std::shared_ptr<std::function<void()>> hook_;
};

TEST(ServeFronts, ReRegistrationWithinOneRunRecomputesFronts) {
  constexpr std::size_t kInputs = 5;
  ModelRegistry registry;
  ModelArtifact replacement = serve_test::synthetic_artifact(48);
  replacement.origin = "replacement";

  // The first model re-registers the replacement while computing its
  // third front (two curve predictions per front): from the next batch
  // on, the loop must answer from the replacement.
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto hook = std::make_shared<std::function<void()>>([&, calls] {
    if (calls->fetch_add(1) + 1 == 2 * 3) {
      registry.put(replacement);
    }
  });
  ModelArtifact first = serve_test::synthetic_artifact(47);
  auto model = std::make_shared<core::DomainSpecificModel>(HookedRegressor(
      std::make_unique<ml::RandomForestRegressor>(
          serve_test::small_forest_params(47)),
      hook));
  model->train(serve_test::synthetic_dataset(derive_seed(47, 7)));
  first.ds = std::move(model);
  registry.put(first);
  const auto first_snapshot = registry.require({"cronos", "v100"});

  // One request per batch: inputs 0-2 get fronts from the first model,
  // then the swap invalidates them, inputs 3-4 get the replacement's
  // fronts, and the second budget recomputes inputs 0-2.
  const std::vector<TimedRequest> trace = budget_trace(kInputs, 1.0);
  ServeLoop loop(registry, unshed_config());
  const std::vector<AdviseResponse> responses =
      loop.run(std::span(trace).first(2 * kInputs));
  const auto second_snapshot = registry.require({"cronos", "v100"});
  ASSERT_NE(first_snapshot, second_snapshot);
  expect_answers_match_advise(responses,
                              {trace.begin(), trace.begin() + 2 * kInputs},
                              {first_snapshot, second_snapshot});
  for (std::size_t i = 0; i < 2 * kInputs; ++i) {
    EXPECT_EQ(responses[i].model.ends_with("@replacement"), i >= 3) << i;
  }
  EXPECT_EQ(loop.stats().fronts, 3u + 2u + 3u);
  EXPECT_EQ(loop.fronts().size(), kInputs);
}

TEST(ServeFronts, ReRegistrationBetweenRunsRecomputesFronts) {
  constexpr std::size_t kInputs = 6;
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(49));
  const auto before = registry.require({"cronos", "v100"});
  const std::vector<TimedRequest> trace = budget_trace(kInputs, 1e-3);

  ServeLoop loop(registry, unshed_config());
  // The first two budgets memoise every input's front.
  loop.run(std::span(trace).first(2 * kInputs));
  EXPECT_EQ(loop.stats().fronts, kInputs);

  ModelArtifact replacement = serve_test::synthetic_artifact(50);
  replacement.origin = "replacement";
  registry.put(replacement);
  const auto after = registry.require({"cronos", "v100"});
  // The last two budgets miss the answer cache; their fronts must come
  // from the replacement, not the memo of the first model.
  const std::vector<TimedRequest> rest(trace.begin() + 2 * kInputs,
                                       trace.end());
  const std::vector<AdviseResponse> responses = loop.run(rest);
  expect_answers_match_advise(responses, rest, {after});
  EXPECT_EQ(loop.stats().fronts, kInputs);
  EXPECT_NE(before, after);
}

TEST(ServeFronts, CapacityZeroAndTwoGiveIdenticalAnswers) {
  ModelRegistry registry;
  registry.put(serve_test::synthetic_artifact(51));
  const auto artifact = registry.require({"cronos", "v100"});
  // Repeated passes in small batches: capacity 2 evicts fronts and
  // answers that later requests need again.
  std::vector<TimedRequest> trace = budget_trace(8, 1e-4);
  const std::size_t pass = trace.size();
  for (std::size_t i = 0; i < pass; ++i) {
    TimedRequest again = trace[i];
    again.arrival_s = 1e-4 * static_cast<double>(trace.size());
    trace.push_back(std::move(again));
  }

  std::vector<std::vector<AdviseResponse>> runs;
  std::vector<std::uint64_t> fronts;
  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{2},
                                     std::size_t{0}}) {
    ServeConfig config = unshed_config(capacity);
    config.batch_size = 4;
    ServeLoop loop(registry, config);
    runs.push_back(loop.run(trace));
    fronts.push_back(loop.stats().fronts);
    EXPECT_LE(loop.fronts().size(), capacity);
    EXPECT_LE(loop.cache().size(), capacity);
    expect_answers_match_advise(runs.back(), trace, {artifact});
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(runs[1][i].answer, runs[0][i].answer) << i;
    EXPECT_EQ(runs[2][i].answer, runs[0][i].answer) << i;
  }
  EXPECT_EQ(fronts[0], 8u);
  EXPECT_GT(fronts[1], fronts[0]);
  // Without a memo, each batch still computes its distinct inputs once.
  EXPECT_GE(fronts[2], fronts[1]);
}

TEST(ServeFronts, AdviseBatchWithDuplicatesEqualsAdvise) {
  const ModelArtifact artifact = serve_test::synthetic_artifact(52);
  const std::vector<TimedRequest> trace = budget_trace(6, 0.0);
  std::vector<AdviseRequest> requests;
  for (const TimedRequest& timed : trace) {
    requests.push_back(timed.request);
  }
  requests.push_back(requests.front()); // an exact duplicate request
  for (const std::size_t threads : {1, 2, 8}) {
    ScopedGlobalPool pool(threads);
    const std::vector<AdviseAnswer> answers =
        Advisor{}.advise_batch(artifact, requests);
    ASSERT_EQ(answers.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(answers[i], Advisor{}.advise(artifact, requests[i]))
          << i << " at " << threads << " threads";
    }
  }
}

} // namespace
