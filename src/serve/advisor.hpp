// Frequency advice as a service: request/response types and the batched
// model evaluator behind the serving loop.
//
// An AdviseRequest asks "for this input, which core frequency minimizes
// energy while staying within my slowdown budget?". The Advisor answers
// it from a trained artifact exactly the way the one-shot
// frequency_advisor example does: predict the full frequency curve,
// extract the predicted Pareto front, pick the lowest-energy front point
// within the budget. Batching fans independent requests across the global
// pool; each request's frequency grid is one ml::Regressor::predict_sweep
// per forest (one walk per tree), and every answer is bit-identical to the
// serial single-request path for any pool size.
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

/// Index into `pred` of the advised frequency: the lowest predicted
/// normalized energy among Pareto-front points within the slowdown
/// budget. When the budget is tighter than every front point, the answer
/// is the highest-speedup (fastest) front point and `*budget_infeasible`
/// (when non-null) is set — callers must see the miss explicitly instead
/// of mistaking the fallback for a within-budget pick.
std::size_t pick_within_slowdown(const core::Prediction& pred,
                                 double max_slowdown,
                                 bool* budget_infeasible = nullptr);

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

class Advisor {
public:
  /// Answers one request from a domain-specific or hybrid artifact
  /// (curves from ModelArtifact::predict over the artifact's schedule).
  AdviseAnswer advise(const ModelArtifact& artifact,
                      const AdviseRequest& request) const;

  /// Answers a batch of requests against one artifact. Requests are
  /// independent; results land in pre-sized slots indexed by request, so
  /// the output is bit-identical to calling advise() per request in
  /// order, for any pool size.
  std::vector<AdviseAnswer>
  advise_batch(const ModelArtifact& artifact,
               std::span<const AdviseRequest> requests) const;
};

} // namespace dsem::serve
