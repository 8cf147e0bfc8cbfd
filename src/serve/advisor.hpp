// Frequency advice as a service: request/response types and the batched
// model evaluator behind the serving loop.
//
// An AdviseRequest asks "for this input, which core frequency minimizes
// energy while staying within my slowdown budget?". The Advisor answers
// it from a trained artifact exactly the way the one-shot
// frequency_advisor example does, in two steps: the input's front (the
// full frequency curve, one ml::Regressor::predict_sweep per forest,
// reduced to its predicted Pareto points), then the pick (the
// lowest-energy front point within the budget). The front depends on the
// input alone, so a batch computes it once per distinct input, fanned
// across the global pool, and every budget picks from it: every answer is
// bit-identical to the serial single-request path for any pool size.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/ds_model.hpp"
#include "serve/artifact.hpp"
#include "serve/lru_cache.hpp"

namespace dsem::serve {

/// One advice query. `features` must match the artifact's feature_names
/// (Table 2 order for the application).
struct AdviseRequest {
  std::string application;
  std::vector<double> features;
  /// Tolerated slowdown vs the default clock, e.g. 0.03 = up to 3%.
  double max_slowdown = 0.03;

  bool operator==(const AdviseRequest&) const = default;
};

/// Throws contract_error unless every feature is finite and the slowdown
/// budget is finite and >= 0. Advisor::advise and ServeLoop::run call it
/// before a request reaches cache_key or the forests.
void validate(const AdviseRequest& request);

/// Throws contract_error unless `quant_step` is finite and > 0 and every
/// feature quantizes into int64 (|f/step| < 2^63): past it, llround would
/// key far-apart inputs alike. cache_key calls it, and ServeLoop::run
/// checks its whole trace with it before serving any of it.
void validate_key_range(const AdviseRequest& request, double quant_step);

/// `pred`'s Pareto front: its points at core::pareto_front(speedup,
/// norm_energy), in that ascending-speedup order, and its baselines.
/// `pred` must come from a model predicting time and energy.
ParetoFront pareto_front_of(const core::Prediction& pred);

/// Index into `pred` of the advised frequency: the lowest predicted
/// normalized energy among points of pred.pareto_indices() within the
/// slowdown budget, read from pred's own speedup and norm_energy. When
/// the budget is tighter than every front point, the answer is the
/// highest-speedup (fastest) front point and `*budget_infeasible` (when
/// non-null) is set — callers must see the miss explicitly instead of
/// mistaking the fallback for a within-budget pick.
std::size_t pick_within_slowdown(const core::Prediction& pred,
                                 double max_slowdown,
                                 bool* budget_infeasible = nullptr);

/// The answer for `max_slowdown` on `front`: the point the same pick as
/// pick_within_slowdown chooses, with budget_infeasible set when it is
/// the fallback. Throws contract_error on an empty front.
AdviseAnswer pick_answer(const ParetoFront& front, double max_slowdown);

/// Deterministic cache key for a query against a given model.
///
/// Features are quantized to multiples of `quant_step` (llround(f/step)),
/// so near-identical inputs share an answer; the slowdown budget is kept
/// exact (%.17g) because it changes which answer is *correct*, not just
/// how precise it is. `quant_step` itself is part of the key, e.g.
/// "cronos/v100|b0.029999999999999999|q1|120|48|48". Throws
/// contract_error outside validate_key_range.
std::string cache_key(const ModelKey& key, const AdviseRequest& request,
                      double quant_step);

/// Key of an input's front against a given model: "app/device|" followed
/// by the 8 bytes of each feature's bit pattern. Exact, not quantized: two
/// inputs share a front only when every feature has the same bits (so
/// -0.0 and 0.0 do not), which keeps a front-derived answer bit-identical
/// to Advisor::advise. The prefix is the answer keys' one, so a single
/// erase_prefix drops a model's fronts as it drops its answers.
std::string front_key(const ModelKey& key, std::span<const double> features);

class Advisor {
public:
  /// One input's predicted Pareto front from a domain-specific or hybrid
  /// artifact (curves from ModelArtifact::predict over the artifact's
  /// schedule). Throws contract_error unless `features` has the
  /// artifact's feature count.
  ParetoFront front(const ModelArtifact& artifact,
                    std::span<const double> features) const;

  /// front() of every input, on the pool into pre-sized slots indexed by
  /// input: bit-identical to calling front() per input, for any pool size.
  std::vector<ParetoFront>
  fronts(const ModelArtifact& artifact,
         std::span<const std::span<const double>> inputs) const;

  /// Answers one request: its front, then the pick for its budget. Throws
  /// contract_error unless the request is routed to `artifact`'s
  /// application, has its feature count, and passes validate().
  AdviseAnswer advise(const ModelArtifact& artifact,
                      const AdviseRequest& request) const;

  /// Answers a batch of requests against one artifact, computing one
  /// front per distinct exact input (front_key) and picking each
  /// request's answer from its input's front. The output is bit-identical
  /// to calling advise() per request in order, for any pool size.
  std::vector<AdviseAnswer>
  advise_batch(const ModelArtifact& artifact,
               std::span<const AdviseRequest> requests) const;
};

} // namespace dsem::serve
