#include "serve/advisor.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace dsem::serve {

namespace {

/// Longest key-number texts: "%.17g" of a double
/// ("-1.2345678901234567e-308") and an int64 ("-9223372036854775808").
constexpr std::size_t kMaxDouble = 24;
constexpr std::size_t kMaxInt64 = 20;

/// Quantized features must fit an int64: |f/step| < 2^63.
constexpr double kQuantLimit = 0x1p63;

char* put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

/// "%.17g": the text that round-trips an IEEE double exactly.
char* put_exact(char* out, double value) {
  return std::to_chars(out, out + kMaxDouble, value,
                       std::chars_format::general, 17)
      .ptr;
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

void validate_key_range(const AdviseRequest& request, double quant_step) {
  DSEM_ENSURE(std::isfinite(quant_step) && quant_step > 0.0,
              "advisor: quantization step must be finite and > 0");
  for (const double f : request.features) {
    DSEM_ENSURE(std::abs(f / quant_step) < kQuantLimit,
                "advisor: quantized feature outside the int64 range");
  }
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
  validate_key_range(request, quant_step);
  // One pass into a buffer sized for the longest possible text, trimmed
  // once at the end.
  std::string out(key.application.size() + 1 + key.device.size() +
                      2 * (2 + kMaxDouble) +
                      request.features.size() * (1 + kMaxInt64),
                  '\0');
  char* p = put(out.data(), key.application);
  *p++ = '/';
  p = put(p, key.device);
  p = put_exact(put(p, "|b"), request.max_slowdown);
  p = put_exact(put(p, "|q"), quant_step);
  for (const double f : request.features) {
    *p++ = '|';
    p = std::to_chars(p, p + kMaxInt64, std::llround(f / quant_step)).ptr;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

AdviseAnswer Advisor::advise(const ModelArtifact& artifact,
                             const AdviseRequest& request) const {
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
  parallel_for(0, requests.size(),
               [&](std::size_t i) { out[i] = advise(artifact, requests[i]); });
  return out;
}

} // namespace dsem::serve
