#include "core/characterization.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dsem::core {

std::vector<std::size_t> Characterization::pareto_indices() const {
  if (points.empty()) {
    return {};
  }
  std::vector<double> s;
  std::vector<double> e;
  s.reserve(points.size());
  e.reserve(points.size());
  for (const auto& p : points) {
    s.push_back(p.speedup);
    e.push_back(p.norm_energy);
  }
  return pareto_front(s, e);
}

const CharacterizationPoint&
Characterization::at_freq(double freq_mhz) const {
  DSEM_ENSURE(!points.empty(), "empty characterization");
  const auto it = std::min_element(
      points.begin(), points.end(), [&](const auto& a, const auto& b) {
        return std::abs(a.freq_mhz - freq_mhz) < std::abs(b.freq_mhz - freq_mhz);
      });
  return *it;
}

double Characterization::best_energy_saving(double max_speedup_loss) const {
  double best = 0.0;
  for (const auto& p : points) {
    if (1.0 - p.speedup <= max_speedup_loss) {
      best = std::max(best, 1.0 - p.norm_energy);
    }
  }
  return best;
}

double Characterization::best_speedup_gain() const {
  double best = 0.0;
  for (const auto& p : points) {
    best = std::max(best, p.speedup - 1.0);
  }
  return best;
}

Characterization characterize(synergy::Device& device,
                              const Workload& workload,
                              const SweepOptions& options,
                              std::span<const double> freqs) {
  const FrequencySweep sweep = sweep_workload(device, workload, freqs, options);
  const Measurement& base = sweep.baseline;

  Characterization out;
  out.default_freq_mhz = sweep.default_freq_mhz;
  if (!sweep.baseline_ok) {
    // No baseline, nothing to normalize against: every swept frequency is
    // lost for this workload, but the sweep itself carries on.
    out.baseline_ok = false;
    out.failed_freqs.reserve(sweep.points.size());
    for (const SweepPoint& sp : sweep.points) {
      out.failed_freqs.push_back(sp.freq_mhz);
    }
    return out;
  }
  DSEM_ENSURE(base.time_s > 0.0 && base.energy_j > 0.0,
              "degenerate baseline measurement");
  out.default_time_s = base.time_s;
  out.default_energy_j = base.energy_j;
  out.points.reserve(sweep.points.size());
  for (const SweepPoint& sp : sweep.points) {
    if (!sp.ok) {
      out.failed_freqs.push_back(sp.freq_mhz);
      continue;
    }
    CharacterizationPoint p;
    p.freq_mhz = sp.freq_mhz;
    p.time_s = sp.m.time_s;
    p.energy_j = sp.m.energy_j;
    p.speedup = base.time_s / sp.m.time_s;
    p.norm_energy = sp.m.energy_j / base.energy_j;
    out.points.push_back(p);
  }
  for (std::size_t idx : out.pareto_indices()) {
    out.points[idx].pareto = true;
  }
  return out;
}

Characterization characterize(synergy::Device& device,
                              const Workload& workload, int repetitions,
                              std::span<const double> freqs) {
  SweepOptions options;
  options.repetitions = repetitions;
  return characterize(device, workload, options, freqs);
}

} // namespace dsem::core
