#include "core/measurement.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/sweep.hpp"
#include "sim/fault.hpp"

namespace dsem::core {

namespace {

/// Records one failed attempt; throws MeasurementError when the policy is
/// spent, otherwise accounts the simulated backoff before the retry.
/// The metrics here ARE the RetryStats fields (one source of truth):
/// retry.faults / retry.retries / retry.backoff_s accumulate exactly what
/// the sweep report aggregates. The trace only marks where the fault hit.
void absorb_fault(const sim::TransientFault& fault, int attempt,
                  const RetryPolicy& policy, RetryStats* stats,
                  const char* operation) {
  if (stats != nullptr) {
    ++stats->faults;
  }
  trace::instant("retry.fault", trace::cat::kMeasure);
  metrics::counter("retry.faults");
  if (attempt >= policy.max_attempts) {
    trace::instant("retry.exhausted", trace::cat::kMeasure);
    throw MeasurementError(std::string(operation) + " failed after " +
                           std::to_string(attempt) + " attempts: " +
                           fault.what());
  }
  const double backoff = policy.backoff_for(attempt);
  if (stats != nullptr) {
    ++stats->retries;
    stats->simulated_backoff_s += backoff;
  }
  // Faults are drawn from the replica device's seeded stream, so retry
  // accounting is deterministic (same contract as RetryStats).
  if (metrics::enabled()) {
    metrics::counter("retry.retries");
    metrics::histogram("retry.backoff_s", backoff);
  }
}

} // namespace

void set_frequency_with_retry(synergy::Device& device, double freq_mhz,
                              const RetryPolicy& policy, RetryStats* stats) {
  DSEM_ENSURE(policy.max_attempts >= 1, "max_attempts must be >= 1");
  trace::Span span("measure.set_frequency", trace::cat::kMeasure);
  span.value(freq_mhz);
  for (int attempt = 1;; ++attempt) {
    if (stats != nullptr) {
      ++stats->attempts;
    }
    metrics::counter("retry.attempts");
    try {
      device.set_frequency(freq_mhz);
      return;
    } catch (const sim::TransientFault& fault) {
      absorb_fault(fault, attempt, policy, stats, "set_frequency");
    }
  }
}

Measurement measure_run(synergy::Device& device, const RunFn& run,
                        int repetitions, const RetryPolicy& retry,
                        RetryStats* stats) {
  DSEM_ENSURE(repetitions >= 1, "repetitions must be >= 1");
  DSEM_ENSURE(retry.max_attempts >= 1, "max_attempts must be >= 1");
  DSEM_ENSURE(static_cast<bool>(run), "measure_run requires a run function");
  trace::Span span("measure.run", trace::cat::kMeasure);
  span.value(repetitions);
  Measurement acc;
  for (int r = 0; r < repetitions; ++r) {
    for (int attempt = 1;; ++attempt) {
      if (stats != nullptr) {
        ++stats->attempts;
      }
      metrics::counter("retry.attempts");
      try {
        synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
        run(queue);
        const double t = queue.total_time_s();
        const double e = queue.total_energy_j();
        // Defense in depth behind the queue's per-launch validation: a
        // degenerate repetition total is a failed measurement, not data.
        if (!(std::isfinite(t) && t > 0.0 && std::isfinite(e) && e > 0.0)) {
          throw sim::TransientFault(
              sim::FaultKind::kEnergyRead,
              "degenerate repetition totals: time=" + std::to_string(t) +
                  " s, energy=" + std::to_string(e) + " J");
        }
        acc.time_s += t;
        acc.energy_j += e;
        break;
      } catch (const sim::TransientFault& fault) {
        absorb_fault(fault, attempt, retry, stats, "measure_run repetition");
      }
    }
  }
  acc.time_s /= repetitions;
  acc.energy_j /= repetitions;
  // Averaged simulated totals: deterministic like the per-launch values.
  if (metrics::enabled()) {
    metrics::histogram("measure.time_s", acc.time_s);
    metrics::histogram("measure.energy_j", acc.energy_j);
  }
  return acc;
}

Measurement measure(synergy::Device& device, const Workload& workload,
                    double freq_mhz, int repetitions,
                    const RetryPolicy& retry, RetryStats* stats) {
  set_frequency_with_retry(device, freq_mhz, retry, stats);
  const Measurement m = measure_run(
      device, [&](synergy::Queue& q) { workload.submit(q); }, repetitions,
      retry, stats);
  device.reset_frequency();
  return m;
}

Measurement measure_default(synergy::Device& device, const Workload& workload,
                            int repetitions, const RetryPolicy& retry,
                            RetryStats* stats) {
  device.reset_frequency();
  return measure_run(
      device, [&](synergy::Queue& q) { workload.submit(q); }, repetitions,
      retry, stats);
}

std::vector<SweepPoint> sweep_frequencies(synergy::Device& device,
                                          const Workload& workload,
                                          int repetitions,
                                          std::span<const double> freqs) {
  SweepOptions options;
  options.repetitions = repetitions;
  FrequencySweep sweep = sweep_workload(device, workload, freqs, options);
  return std::move(sweep.points);
}

} // namespace dsem::core
