#include "serve/advisor.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <unordered_map>

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

/// The one pick: among `n` front points in ascending speedup, the index
/// of the lowest normalized energy within the budget, else the last
/// (fastest) point with `*budget_infeasible` raised.
template <class Speedup, class NormEnergy>
std::size_t pick_index(std::size_t n, const Speedup& speedup,
                       const NormEnergy& norm_energy, double max_slowdown,
                       bool* budget_infeasible) {
  DSEM_ENSURE(n > 0, "advisor: empty Pareto front");
  std::size_t pick = n - 1;
  bool found = false;
  double pick_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (1.0 - speedup(i) > max_slowdown) {
      continue;
    }
    const double energy = norm_energy(i);
    if (!found || energy < pick_energy) {
      pick = i;
      pick_energy = energy;
      found = true;
    }
  }
  if (budget_infeasible != nullptr) {
    *budget_infeasible = !found;
  }
  return pick;
}

/// Throws contract_error unless `request` is routed to `artifact`'s
/// application and passes validate(); Advisor::front checks the feature
/// count.
void check_routed(const ModelArtifact& artifact,
                  const AdviseRequest& request) {
  DSEM_ENSURE(request.application == artifact.key.application,
              "advisor: request for \"" + request.application +
                  "\" routed to model " + artifact.key.to_string());
  validate(request);
}

/// Inputs below this count run serially; the pool fan-out overhead is
/// not worth it for a handful of forest evaluations.
constexpr std::size_t kParallelMinInputs = 4;

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

ParetoFront pareto_front_of(const core::Prediction& pred) {
  DSEM_ENSURE(pred.time_s.size() == pred.freqs_mhz.size() &&
                  pred.energy_j.size() == pred.freqs_mhz.size(),
              "advisor: a front needs predicted times and energies");
  const std::vector<std::size_t> indices = pred.pareto_indices();
  ParetoFront front;
  front.base_time_s = pred.base_time_s;
  front.base_energy_j = pred.base_energy_j;
  front.points.reserve(indices.size());
  for (const std::size_t i : indices) {
    front.points.push_back(
        {pred.freqs_mhz[i], pred.time_s[i], pred.energy_j[i]});
  }
  return front;
}

std::size_t pick_within_slowdown(const core::Prediction& pred,
                                 double max_slowdown,
                                 bool* budget_infeasible) {
  const std::vector<std::size_t> indices = pred.pareto_indices();
  return indices[pick_index(
      indices.size(), [&](std::size_t k) { return pred.speedup[indices[k]]; },
      [&](std::size_t k) { return pred.norm_energy[indices[k]]; },
      max_slowdown, budget_infeasible)];
}

AdviseAnswer pick_answer(const ParetoFront& front, double max_slowdown) {
  AdviseAnswer answer;
  const std::size_t i = pick_index(
      front.points.size(), [&](std::size_t k) { return front.speedup(k); },
      [&](std::size_t k) { return front.norm_energy(k); }, max_slowdown,
      &answer.budget_infeasible);
  const FrontPoint& point = front.points[i];
  answer.freq_mhz = point.freq_mhz;
  answer.predicted_time_s = point.time_s;
  answer.predicted_energy_j = point.energy_j;
  answer.predicted_speedup = front.speedup(i);
  answer.predicted_norm_energy = front.norm_energy(i);
  return answer;
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

std::string front_key(const ModelKey& key, std::span<const double> features) {
  std::string out(key.application.size() + 2 + key.device.size() +
                      features.size() * sizeof(double),
                  '\0');
  char* p = put(out.data(), key.application);
  *p++ = '/';
  p = put(p, key.device);
  *p++ = '|';
  if (!features.empty()) {
    std::memcpy(p, features.data(), features.size() * sizeof(double));
  }
  return out;
}

ParetoFront Advisor::front(const ModelArtifact& artifact,
                           std::span<const double> features) const {
  DSEM_ENSURE(features.size() == artifact.feature_names.size(),
              "advisor: feature count mismatch for " +
                  artifact.key.to_string());
  return pareto_front_of(artifact.predict(features, artifact.freqs_mhz));
}

std::vector<ParetoFront>
Advisor::fronts(const ModelArtifact& artifact,
                std::span<const std::span<const double>> inputs) const {
  std::vector<ParetoFront> out(inputs.size());
  if (inputs.size() < kParallelMinInputs) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      out[i] = front(artifact, inputs[i]);
    }
    return out;
  }
  parallel_for(0, inputs.size(),
               [&](std::size_t i) { out[i] = front(artifact, inputs[i]); });
  return out;
}

AdviseAnswer Advisor::advise(const ModelArtifact& artifact,
                             const AdviseRequest& request) const {
  check_routed(artifact, request);
  return pick_answer(front(artifact, request.features),
                     request.max_slowdown);
}

std::vector<AdviseAnswer>
Advisor::advise_batch(const ModelArtifact& artifact,
                      std::span<const AdviseRequest> requests) const {
  // Number the distinct exact inputs in order of first appearance.
  std::unordered_map<std::string, std::size_t> input_of_key;
  std::vector<std::span<const double>> inputs;
  std::vector<std::size_t> input_of(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    check_routed(artifact, requests[i]);
    const auto [it, fresh] = input_of_key.try_emplace(
        front_key(artifact.key, requests[i].features), inputs.size());
    if (fresh) {
      inputs.push_back(requests[i].features);
    }
    input_of[i] = it->second;
  }
  const std::vector<ParetoFront> computed = fronts(artifact, inputs);
  std::vector<AdviseAnswer> out(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = pick_answer(computed[input_of[i]], requests[i].max_slowdown);
  }
  return out;
}

} // namespace dsem::serve
