#include "core/sweep.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/sweep_report.hpp"

namespace dsem::core {

namespace {

/// Per-grid-point outcome; assembled into FrequencySweep slots after the
/// parallel region so report aggregation stays serial and ordered.
struct PointResult {
  Measurement m;
  bool ok = true;
  RetryStats stats;
  std::string error;
};

} // namespace

std::vector<FrequencySweep> sweep_grid(synergy::Device& device,
                                       std::span<const SweepTask> tasks,
                                       std::span<const double> freqs,
                                       const SweepOptions& options) {
  DSEM_ENSURE(!tasks.empty(), "sweep_grid: no tasks");
  DSEM_ENSURE(options.repetitions >= 1, "repetitions must be >= 1");
  for (const SweepTask& task : tasks) {
    DSEM_ENSURE(static_cast<bool>(task.run), "sweep_grid: empty task");
  }

  std::vector<double> all_freqs;
  if (freqs.empty()) {
    all_freqs = device.supported_frequencies();
    freqs = all_freqs;
  }
  DSEM_ENSURE(!freqs.empty(), "sweep_grid: device supports no frequencies");

  // Grid layout: flat index = task * (freqs + 1) + k, where k == 0 is the
  // default-clock baseline and k >= 1 is freqs[k - 1]. The seed of each
  // point is a pure function of its flat index, so the result grid does
  // not depend on thread count or scheduling order.
  const sim::Device& base = device.simulated();
  const std::uint64_t base_seed = base.seed();
  const std::size_t stride = freqs.size() + 1;
  const std::size_t n = tasks.size() * stride;
  const double default_freq = device.default_frequency();

  std::vector<PointResult> grid(n);
  trace::Span sweep_span("sweep.grid", trace::cat::kSweep);
  sweep_span.value(static_cast<double>(n));
  parallel_for(
      0, n,
      [&](std::size_t idx) {
        const std::size_t t = idx / stride;
        const std::size_t k = idx % stride;
        // Logical ROOT keyed by the flat grid index: everything this point
        // records (measure spans, retry counters, queue submits) gets a
        // (path, seq) that is a pure function of the grid coordinates.
        trace::Span point_span("sweep.point", trace::cat::kSweep, idx);
        point_span.value(k == 0 ? default_freq : freqs[k - 1]);
        PointResult& pr = grid[idx];
        sim::Device rep = base.replica(derive_seed(base_seed, idx));
        synergy::Device dev(rep);
        try {
          if (k == 0) {
            dev.reset_frequency();
          } else {
            set_frequency_with_retry(dev, freqs[k - 1], options.retry,
                                     &pr.stats);
          }
          pr.m = measure_run(dev, tasks[t].run, options.repetitions,
                             options.retry, &pr.stats);
        } catch (const MeasurementError& error) {
          pr.ok = false;
          pr.m = {};
          pr.error = error.what();
          trace::instant("sweep.point_failed", trace::cat::kSweep);
        }
      },
      /*grain=*/1);

  if (metrics::enabled()) {
    std::uint64_t failed = 0;
    for (const PointResult& pr : grid) {
      failed += pr.ok ? 0 : 1;
    }
    metrics::counter("sweep.grid_points", n);
    metrics::counter("sweep.failed_points", failed);
  }

  std::vector<FrequencySweep> out(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    FrequencySweep& fs = out[t];
    fs.default_freq_mhz = default_freq;
    const PointResult& base_pr = grid[t * stride];
    fs.baseline = base_pr.m;
    fs.baseline_ok = base_pr.ok;
    fs.baseline_attempts = base_pr.stats.attempts;
    fs.baseline_error = base_pr.error;
    fs.points.reserve(freqs.size());
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      const PointResult& pr = grid[t * stride + k + 1];
      fs.points.push_back(
          {freqs[k], pr.m, pr.ok, pr.stats.attempts, pr.error});
    }
  }

  if (options.report != nullptr) {
    SweepReport& report = *options.report;
    report.grid_points += n;
    for (std::size_t idx = 0; idx < n; ++idx) {
      const PointResult& pr = grid[idx];
      report.retry.merge(pr.stats);
      if (!pr.ok) {
        ++report.failed_points;
        const std::size_t k = idx % stride;
        report.failures.push_back({idx / stride,
                                   k == 0 ? default_freq : freqs[k - 1],
                                   k == 0, pr.stats.attempts, pr.error});
      }
    }
  }
  return out;
}

FrequencySweep sweep_workload(synergy::Device& device,
                              const Workload& workload,
                              std::span<const double> freqs,
                              const SweepOptions& options) {
  const SweepTask task{[&](synergy::Queue& q) { workload.submit(q); }};
  std::vector<FrequencySweep> result =
      sweep_grid(device, std::span(&task, 1), freqs, options);
  return std::move(result.front());
}

std::vector<FrequencySweep> sweep_workloads(
    synergy::Device& device,
    std::span<const std::unique_ptr<Workload>> workloads,
    std::span<const double> freqs, const SweepOptions& options) {
  DSEM_ENSURE(!workloads.empty(), "sweep_workloads: no workloads");
  std::vector<SweepTask> tasks;
  tasks.reserve(workloads.size());
  for (const auto& w : workloads) {
    const Workload* workload = w.get();
    DSEM_ENSURE(workload != nullptr, "sweep_workloads: null workload");
    tasks.push_back({[workload](synergy::Queue& q) { workload->submit(q); }});
  }
  return sweep_grid(device, tasks, freqs, options);
}

std::vector<double> every_nth(std::span<const double> values,
                              std::size_t stride) {
  DSEM_ENSURE(stride >= 1, "stride must be >= 1");
  std::vector<double> out;
  out.reserve((values.size() + stride - 1) / stride);
  for (std::size_t i = 0; i < values.size(); i += stride) {
    out.push_back(values[i]);
  }
  return out;
}

} // namespace dsem::core
