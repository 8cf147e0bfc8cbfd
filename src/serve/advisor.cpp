#include "serve/advisor.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace dsem::serve {

namespace {

/// %.17g: shortest text that round-trips an IEEE double exactly.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Requests below this count run serially; the pool fan-out overhead is
/// not worth it for a handful of forest evaluations.
constexpr std::size_t kParallelMinRequests = 4;

} // namespace

void validate(const AdviseRequest& request) {
  for (const double feature : request.features) {
    DSEM_ENSURE(std::isfinite(feature),
                "advisor: non-finite feature in a request for \"" +
                    request.application + "\"");
  }
  DSEM_ENSURE(std::isfinite(request.max_slowdown) &&
                  request.max_slowdown >= 0.0,
              "advisor: slowdown budget must be finite and >= 0");
}

std::size_t pick_within_slowdown(const core::Prediction& pred,
                                 double max_slowdown,
                                 bool* budget_infeasible) {
  const std::vector<std::size_t> front = pred.pareto_indices();
  DSEM_ENSURE(!front.empty(), "advisor: empty Pareto front");
  // Fallback: the highest-speedup front point (front is sorted by
  // ascending speedup).
  std::size_t pick = front.back();
  bool found = false;
  for (const std::size_t i : front) {
    if (1.0 - pred.speedup[i] <= max_slowdown &&
        (!found || pred.norm_energy[i] < pred.norm_energy[pick])) {
      pick = i;
      found = true;
    }
  }
  if (budget_infeasible != nullptr) {
    *budget_infeasible = !found;
  }
  return pick;
}

std::string cache_key(const ModelKey& key, const AdviseRequest& request,
                      double quant_step) {
  DSEM_ENSURE(quant_step > 0.0, "advisor: quantization step must be > 0");
  std::string out = key.to_string();
  out += "|b";
  out += exact(request.max_slowdown);
  out += "|q";
  out += exact(quant_step);
  for (const double f : request.features) {
    out += '|';
    out += std::to_string(std::llround(f / quant_step));
  }
  return out;
}

AdviseAnswer Advisor::advise(const ModelArtifact& artifact,
                             const AdviseRequest& request) const {
  DSEM_ENSURE(artifact.is_advisable(),
              "advisor: serving needs a domain-specific or hybrid artifact");
  DSEM_ENSURE(request.application == artifact.key.application,
              "advisor: request for \"" + request.application +
                  "\" routed to model " + artifact.key.to_string());
  DSEM_ENSURE(request.features.size() == artifact.feature_names.size(),
              "advisor: feature count mismatch for " +
                  artifact.key.to_string());
  validate(request);

  const core::Prediction pred =
      artifact.predict(request.features, artifact.freqs_mhz);
  bool infeasible = false;
  const std::size_t pick =
      pick_within_slowdown(pred, request.max_slowdown, &infeasible);

  AdviseAnswer answer;
  answer.freq_mhz = pred.freqs_mhz[pick];
  answer.predicted_time_s = pred.time_s[pick];
  answer.predicted_energy_j = pred.energy_j[pick];
  answer.predicted_speedup = pred.speedup[pick];
  answer.predicted_norm_energy = pred.norm_energy[pick];
  answer.budget_infeasible = infeasible;
  return answer;
}

std::vector<AdviseAnswer>
Advisor::advise_batch(const ModelArtifact& artifact,
                      std::span<const AdviseRequest> requests) const {
  std::vector<AdviseAnswer> out(requests.size());
  if (requests.size() < kParallelMinRequests) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      out[i] = advise(artifact, requests[i]);
    }
    return out;
  }
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::global();
  parallel_for(pool, 0, requests.size(),
               [&](std::size_t i) { out[i] = advise(artifact, requests[i]); });
  return out;
}

} // namespace dsem::serve
