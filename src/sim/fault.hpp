// Deterministic fault injection for the simulated DVFS stack.
//
// Real DVFS hardware fails transiently: frequency-set requests are
// rejected under driver contention, energy-counter reads return garbage
// when an accumulator wraps or the SMI bus drops a transaction, and
// kernel launches abort on ECC or scheduler hiccups (Calore et al. and
// Ilager et al. both report noisy/failed sensor reads as a practical
// obstacle to collecting DVFS training sweeps). The injector reproduces
// those failure modes over the simulator at configurable rates.
//
// Determinism contract: an injector draws from its own xoshiro stream,
// seeded as derive_seed(device_seed, kFaultStreamSalt) — disjoint from
// the measurement-noise stream, so enabling faults never perturbs the
// noise a successful launch observes, and a zero-rate injector is
// bit-identical to no injector at all. Replica devices (parallel sweeps)
// derive their injector from the replica seed, making the fault schedule
// a pure function of grid coordinates: the same faults fire at the same
// grid points for any thread count.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace dsem::sim {

/// Per-operation fault probabilities; all zero (the default) disables
/// injection entirely.
struct FaultConfig {
  double set_frequency_rate = 0.0;      ///< set_core_frequency rejected
  double energy_read_drop_rate = 0.0;   ///< energy counter read unavailable
  double energy_read_garbage_rate = 0.0;///< energy counter returns garbage
  double launch_rate = 0.0;             ///< kernel launch aborts

  bool any() const noexcept {
    return set_frequency_rate > 0.0 || energy_read_drop_rate > 0.0 ||
           energy_read_garbage_rate > 0.0 || launch_rate > 0.0;
  }
  /// Sets every rate to `rate` except garbage reads, which get rate / 2
  /// (the rarer, nastier flavour). Convenience for one-knob CLIs.
  static FaultConfig uniform(double rate) noexcept {
    return {rate, rate, rate / 2.0, rate};
  }

  bool operator==(const FaultConfig&) const = default;
};

/// What failed, as the recovery layer sees it.
enum class FaultKind { kSetFrequency, kEnergyRead, kKernelLaunch };

const char* to_string(FaultKind kind) noexcept;

/// Thrown by the simulated device (and the queue's counter validation)
/// when an injected transient fault fires. Retryable by design: the
/// operation may be reissued and will redraw the fault schedule.
class TransientFault : public std::runtime_error {
public:
  TransientFault(FaultKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  FaultKind kind() const noexcept { return kind_; }

private:
  FaultKind kind_;
};

/// Sanity check on one launch's counter readings: a garbage read
/// (negative delta from a wrapped accumulator, NaN from a dropped
/// transaction) must surface as a retryable kEnergyRead fault, never
/// enter a measurement silently. Passes finite, non-negative readings.
void check_reading(const std::string& kernel, double time_s, double energy_j);

/// Salt separating the fault stream from the measurement-noise stream of
/// the same device seed.
inline constexpr std::uint64_t kFaultStreamSalt = 0xFA017D1CE;

/// Draws the fault schedule. Each should_* consumes one uniform draw only
/// when its rate is positive, so unused fault classes leave the stream
/// untouched.
class FaultInjector {
public:
  /// Inert injector: zero rates, never draws, never fires.
  FaultInjector() = default;

  FaultInjector(const FaultConfig& config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  const FaultConfig& config() const noexcept { return config_; }

  void reseed(std::uint64_t seed) noexcept { rng_.reseed(seed); }

  bool should_fail_set_frequency() noexcept {
    return fire(config_.set_frequency_rate);
  }

  bool should_fail_launch() noexcept { return fire(config_.launch_rate); }

  enum class EnergyFault { kNone, kDropped, kGarbage };

  /// One decision per energy-counter read; dropped and garbage reads are
  /// independent draws (dropped wins when both fire).
  EnergyFault energy_read_fault() noexcept {
    const bool dropped = fire(config_.energy_read_drop_rate);
    const bool garbage = fire(config_.energy_read_garbage_rate);
    if (dropped) {
      return EnergyFault::kDropped;
    }
    return garbage ? EnergyFault::kGarbage : EnergyFault::kNone;
  }

  /// A corrupted counter reading for a launch that truly consumed
  /// `true_energy_j`: a negative delta, as seen when a hardware energy
  /// accumulator resets mid-measurement.
  double garbage_energy(double true_energy_j) noexcept {
    return -(true_energy_j + 1.0) * rng_.uniform(1.0, 1000.0);
  }

  /// Faults fired so far (all kinds).
  std::uint64_t faults_injected() const noexcept { return injected_; }

private:
  bool fire(double rate) noexcept {
    if (rate <= 0.0) {
      return false;
    }
    if (rng_.uniform() < rate) {
      ++injected_;
      return true;
    }
    return false;
  }

  FaultConfig config_;
  Rng rng_{0};
  std::uint64_t injected_ = 0;
};

} // namespace dsem::sim
