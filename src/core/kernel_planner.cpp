#include "core/kernel_planner.hpp"

#include <limits>

#include "common/error.hpp"
#include "core/sweep.hpp"

namespace dsem::core {

KernelPlan plan_kernel_frequencies(synergy::Device& device,
                                   const Workload& workload,
                                   double max_slowdown, int repetitions,
                                   std::size_t freq_stride) {
  DSEM_ENSURE(max_slowdown >= 0.0, "max_slowdown must be non-negative");
  const std::vector<double> freqs =
      every_nth(device.supported_frequencies(), freq_stride);

  // Kernel-resolved measurement of one full run at a pinned frequency:
  // returns time/energy per kernel name.
  const auto run_at = [&](double freq_mhz) {
    std::map<std::string, Measurement> per_kernel;
    for (int r = 0; r < repetitions; ++r) {
      if (freq_mhz > 0.0) {
        device.set_frequency(freq_mhz);
      } else {
        device.reset_frequency();
      }
      synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
      workload.submit(queue);
      for (const auto& record : queue.records()) {
        auto& m = per_kernel[record.kernel_name];
        m.time_s += record.time_s;
        m.energy_j += record.energy_j;
      }
    }
    device.reset_frequency();
    for (auto& [_, m] : per_kernel) {
      m.time_s /= repetitions;
      m.energy_j /= repetitions;
    }
    return per_kernel;
  };

  const auto baseline = run_at(0.0);
  DSEM_ENSURE(!baseline.empty(), "workload submitted no kernels");

  struct Best {
    double freq = 0.0;
    double energy = std::numeric_limits<double>::infinity();
    double saving = 0.0;
  };
  std::map<std::string, Best> best;
  for (const auto& [name, base] : baseline) {
    best[name] =
        Best{device.default_frequency(), base.energy_j, 0.0};
  }

  for (const double freq : freqs) {
    const auto at = run_at(freq);
    for (const auto& [name, m] : at) {
      const Measurement& base = baseline.at(name);
      const double slowdown = 1.0 - base.time_s / m.time_s;
      if (slowdown <= max_slowdown && m.energy_j < best[name].energy) {
        best[name] = Best{freq, m.energy_j,
                          1.0 - m.energy_j / base.energy_j};
      }
    }
  }

  KernelPlan plan;
  for (const auto& [name, b] : best) {
    plan.freq_by_kernel[name] = b.freq;
    plan.predicted_saving[name] = b.saving;
  }
  return plan;
}

Measurement measure_with_plan(synergy::Device& device,
                              const Workload& workload,
                              const KernelPlan& plan, int repetitions) {
  DSEM_ENSURE(!plan.freq_by_kernel.empty(), "empty kernel plan");
  DSEM_ENSURE(repetitions >= 1, "repetitions must be >= 1");
  Measurement acc;
  for (int r = 0; r < repetitions; ++r) {
    device.reset_frequency();
    synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
    queue.set_kernel_frequency_plan(plan.freq_by_kernel);
    workload.submit(queue);
    acc.time_s += queue.total_time_s();
    acc.energy_j += queue.total_energy_j();
  }
  device.reset_frequency();
  acc.time_s /= repetitions;
  acc.energy_j /= repetitions;
  return acc;
}

} // namespace dsem::core
