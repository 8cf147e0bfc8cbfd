// Speedup / normalized-energy characterization of a workload across the
// full frequency schedule of a device — the machinery behind every
// scatter plot of the paper (Figs. 1-10).
#pragma once

#include "core/measurement.hpp"
#include "core/pareto.hpp"
#include "core/sweep.hpp"

namespace dsem::core {

struct CharacterizationPoint {
  double freq_mhz = 0.0;
  double time_s = 0.0;
  double energy_j = 0.0;
  double speedup = 0.0;     ///< t_default / t
  double norm_energy = 0.0; ///< e / e_default
  bool pareto = false;      ///< member of the non-dominated front
};

struct Characterization {
  std::vector<CharacterizationPoint> points; ///< ascending frequency
  double default_freq_mhz = 0.0;
  double default_time_s = 0.0;
  double default_energy_j = 0.0;
  /// False when the default-clock baseline exhausted its retries; the
  /// characterization then has no points (nothing to normalize against).
  bool baseline_ok = true;
  /// Frequencies whose grid point exhausted its retries (absent from
  /// `points`). Every swept frequency when the baseline failed.
  std::vector<double> failed_freqs;

  std::vector<std::size_t> pareto_indices() const;
  const CharacterizationPoint& at_freq(double freq_mhz) const;

  /// Best achievable energy saving (1 - min norm_energy) among points
  /// whose speedup loss does not exceed `max_speedup_loss`.
  double best_energy_saving(double max_speedup_loss = 1.0) const;

  /// Best achievable speedup - 1 over the whole sweep.
  double best_speedup_gain() const;
};

/// Full-sweep characterization: every supported frequency (or `freqs`),
/// normalized against the device's default/auto configuration. Runs the
/// grid through the deterministic parallel sweep engine — see
/// core/sweep.hpp for the cache knob and the determinism contract.
Characterization characterize(synergy::Device& device,
                              const Workload& workload,
                              const SweepOptions& options,
                              std::span<const double> freqs = {});

/// Convenience overload: default sweep options with `repetitions`.
Characterization characterize(synergy::Device& device,
                              const Workload& workload,
                              int repetitions = kDefaultRepetitions,
                              std::span<const double> freqs = {});

} // namespace dsem::core
