// Resilient-sweep contract: transient device faults are retried under the
// RetryPolicy, grid points that exhaust their attempts degrade into failed
// records instead of aborting, the models train on what survived, and the
// whole faulty pipeline stays bit-identical for any thread-pool size.
#include <algorithm>
#include <memory>
#include <string_view>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/characterization.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/evaluation.hpp"
#include "core/sweep_report.hpp"
#include "microbench/suite.hpp"

namespace dsem::core {
namespace {

std::vector<std::unique_ptr<Workload>> test_workloads() {
  std::vector<std::unique_ptr<Workload>> out;
  for (int n : {10, 20, 40}) {
    out.push_back(std::make_unique<CronosWorkload>(
        cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
        2));
  }
  out.push_back(std::make_unique<LigenWorkload>(256, 31, 8));
  return out;
}

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  const RetryPolicy policy{3, 0.01, 2.0};
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 0.01);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 0.02);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3), 0.04);
}

TEST(RetryPolicyTest, StatsMergeSumsEveryField) {
  RetryStats a{3, 1, 2, 0.5};
  const RetryStats b{5, 2, 3, 0.25};
  a.merge(b);
  EXPECT_EQ(a.attempts, 8u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.faults, 5u);
  EXPECT_DOUBLE_EQ(a.simulated_backoff_s, 0.75);
}

TEST(RetryTest, SetFrequencyRetriesThenSucceeds) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0x5e7);
  sim::FaultConfig config;
  config.set_frequency_rate = 0.5;
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);

  RetryStats stats;
  const RetryPolicy policy{10, 0.01, 2.0};
  for (int i = 0; i < 50; ++i) {
    set_frequency_with_retry(device, 900.0, policy, &stats);
  }
  EXPECT_GT(stats.faults, 0u);
  EXPECT_EQ(stats.retries, stats.faults); // none exhausted the policy
  EXPECT_EQ(stats.attempts, 50u + stats.retries);
  EXPECT_GT(stats.simulated_backoff_s, 0.0);
}

TEST(RetryTest, SetFrequencyExhaustionThrowsMeasurementError) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0x5e8);
  sim::FaultConfig config;
  config.set_frequency_rate = 1.0; // always rejected
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);

  RetryStats stats;
  EXPECT_THROW(set_frequency_with_retry(device, 900.0, {3, 0.01, 2.0}, &stats),
               MeasurementError);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.faults, 3u);
  EXPECT_EQ(stats.retries, 2u); // the last attempt has no retry after it
}

TEST(RetryTest, MeasureRunRetriesTransientLaunchFaults) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0xF00);
  sim::FaultConfig config;
  config.launch_rate = 0.05;
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);
  const CronosWorkload workload(cronos::GridDims{10, 4, 4}, 2);

  RetryStats stats;
  const Measurement m = measure_run(
      device, [&](synergy::Queue& q) { workload.submit(q); },
      /*repetitions=*/5, RetryPolicy{20, 0.01, 2.0}, &stats);
  EXPECT_GT(m.time_s, 0.0);
  EXPECT_GT(m.energy_j, 0.0);
  EXPECT_GT(stats.faults, 0u);
  EXPECT_EQ(stats.attempts, 5u + stats.retries);
}

TEST(RetryTest, MeasureRunExhaustionThrowsMeasurementError) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0xF01);
  sim::FaultConfig config;
  config.launch_rate = 1.0; // every launch aborts
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);
  const CronosWorkload workload(cronos::GridDims{10, 4, 4}, 2);

  EXPECT_THROW(measure_run(
                   device, [&](synergy::Queue& q) { workload.submit(q); },
                   /*repetitions=*/1, RetryPolicy{3, 0.01, 2.0}, nullptr),
               MeasurementError);
}

TEST(FaultSweepTest, ExhaustedPointsAreRecordedNotFatal) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0xABC);
  sim::FaultConfig config;
  config.set_frequency_rate = 1.0; // every pin rejected; baseline unaffected
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);
  const CronosWorkload workload(cronos::GridDims{10, 4, 4}, 2);
  const std::vector<double> freqs = {500.0, 900.0, 1300.0};

  SweepReport report;
  SweepOptions options;
  options.repetitions = 1;
  options.retry = {2, 0.01, 2.0};
  options.report = &report;
  const FrequencySweep sweep = sweep_workload(device, workload, freqs, options);

  // reset_frequency never injects: the baseline survives.
  EXPECT_TRUE(sweep.baseline_ok);
  EXPECT_GT(sweep.baseline.time_s, 0.0);
  ASSERT_EQ(sweep.points.size(), freqs.size());
  for (const SweepPoint& sp : sweep.points) {
    EXPECT_FALSE(sp.ok);
    EXPECT_EQ(sp.attempts, 2u);
    EXPECT_FALSE(sp.error.empty());
    EXPECT_EQ(sp.m, Measurement{});
  }
  EXPECT_EQ(report.grid_points, freqs.size() + 1);
  EXPECT_EQ(report.failed_points, freqs.size());
  ASSERT_EQ(report.failures.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_FALSE(report.failures[i].baseline);
    EXPECT_EQ(report.failures[i].freq_mhz, freqs[i]);
    EXPECT_EQ(report.failures[i].attempts, 2u);
  }

  // The characterization degrades the same way instead of throwing.
  const Characterization c = characterize(device, workload, options, freqs);
  EXPECT_TRUE(c.baseline_ok);
  EXPECT_TRUE(c.points.empty());
  EXPECT_EQ(c.failed_freqs, freqs);
  EXPECT_TRUE(c.pareto_indices().empty());
}

TEST(FaultSweepTest, FailedBaselinePoisonsOnlyItsGroup) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none(), 0xABD);
  sim::FaultConfig config;
  config.launch_rate = 1.0; // nothing survives
  sim_dev.set_fault_config(config);
  synergy::Device device(sim_dev);
  const CronosWorkload workload(cronos::GridDims{10, 4, 4}, 2);

  SweepOptions options;
  options.repetitions = 1;
  options.retry = {2, 0.01, 2.0};
  const std::vector<double> freqs = {500.0, 900.0};
  const Characterization c = characterize(device, workload, options, freqs);
  EXPECT_FALSE(c.baseline_ok);
  EXPECT_TRUE(c.points.empty());
  EXPECT_EQ(c.failed_freqs.size(), 2u);
}

// Shared scenario for the partial-dataset and determinism tests: rates and
// seed chosen so the grid loses a handful of points AND one whole group's
// baseline while most groups survive (56 points, 6 failed, 1 of 4 groups
// lost at these settings).
Dataset faulty_dataset(std::size_t threads, SweepReport* report,
                       double rate = 0.005) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.01, 0.01}, 0x3);
  sim_dev.set_fault_config(sim::FaultConfig::uniform(rate));
  synergy::Device device(sim_dev);
  const auto workloads = test_workloads();

  ScopedGlobalPool pool(threads);
  SweepOptions options;
  options.repetitions = 2;
  options.retry = {2, 0.01, 2.0};
  options.report = report;
  return build_dataset(device, workloads, options,
                       every_nth(device.supported_frequencies(), 16));
}

TEST(FaultSweepTest, PartialDatasetTrainsAndEvaluates) {
  SweepReport report;
  const Dataset dataset = faulty_dataset(4, &report);
  const auto workloads = test_workloads();

  EXPECT_GT(report.failed_points, 0u);
  EXPECT_LT(dataset.rows(), report.grid_points - workloads.size());
  EXPECT_GT(dataset.rows(), 0u);
  EXPECT_EQ(dataset.num_groups(), workloads.size()); // slots preserved

  std::size_t ok_groups = 0;
  std::size_t lost_groups = 0;
  for (std::size_t g = 0; g < dataset.num_groups(); ++g) {
    if (dataset.group_ok(static_cast<int>(g))) {
      ++ok_groups;
    } else {
      ++lost_groups;
      EXPECT_TRUE(dataset.rows_of_group(static_cast<int>(g)).empty());
      EXPECT_EQ(dataset.group_default[g], Measurement{});
    }
  }
  EXPECT_GE(ok_groups, 2u);
  EXPECT_GE(lost_groups, 1u);

  // The DS model trains on what survived and still predicts sane curves.
  DomainSpecificModel model;
  model.train(dataset);
  const std::vector<double> pred_freqs = {500.0, 900.0, 1300.0};
  const Prediction pred = model.predict(workloads.front()->domain_features(),
                                        pred_freqs, 1312.0);
  for (double t : pred.time_s) {
    EXPECT_GT(t, 0.0);
  }

  // LOOCV defaults to the surviving groups only.
  sim::Device gp_sim(sim::v100(), sim::NoiseConfig::none(), 0x69);
  synergy::Device gp_device(gp_sim);
  GeneralPurposeModel gp;
  gp.train(gp_device, microbench::make_suite(), 1, 32);
  const AccuracyReport acc = evaluate_accuracy(dataset, workloads, gp);
  EXPECT_EQ(acc.rows.size(), ok_groups);
  for (const auto& row : acc.rows) {
    EXPECT_TRUE(dataset.group_ok(dataset.group_of(row.input)));
  }
}

TEST(FaultSweepTest, PipelineBitIdenticalAcrossPoolSizes) {
  SweepReport serial_report;
  const Dataset serial = faulty_dataset(1, &serial_report);
  for (std::size_t threads : {2, 8}) {
    SweepReport report;
    const Dataset parallel = faulty_dataset(threads, &report);

    // Deterministic report fields: everything except the phase wall
    // times.
    EXPECT_EQ(report.grid_points, serial_report.grid_points);
    EXPECT_EQ(report.failed_points, serial_report.failed_points);
    EXPECT_EQ(report.retry.attempts, serial_report.retry.attempts);
    EXPECT_EQ(report.retry.retries, serial_report.retry.retries);
    EXPECT_EQ(report.retry.faults, serial_report.retry.faults);
    EXPECT_EQ(report.retry.simulated_backoff_s,
              serial_report.retry.simulated_backoff_s);
    ASSERT_EQ(report.failures.size(), serial_report.failures.size());
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      EXPECT_EQ(report.failures[i], serial_report.failures[i]) << i;
    }

    ASSERT_EQ(serial.rows(), parallel.rows());
    EXPECT_EQ(serial.time_s, parallel.time_s);
    EXPECT_EQ(serial.energy_j, parallel.energy_j);
    EXPECT_EQ(serial.groups, parallel.groups);
    for (std::size_t g = 0; g < serial.group_default.size(); ++g) {
      EXPECT_EQ(serial.group_default[g], parallel.group_default[g]) << g;
    }
  }

  // End of the chain: identical final predictions.
  const Dataset parallel = faulty_dataset(8, nullptr);
  DomainSpecificModel ds_serial;
  ds_serial.train(serial);
  DomainSpecificModel ds_parallel;
  ds_parallel.train(parallel);
  const std::vector<double> features =
      CronosWorkload(cronos::GridDims{20, 8, 8}, 2).domain_features();
  const std::vector<double> freqs = {300.0, 700.0, 1100.0, 1597.0};
  const Prediction a = ds_serial.predict(features, freqs, 1312.0);
  const Prediction b = ds_parallel.predict(features, freqs, 1312.0);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.norm_energy, b.norm_energy);
}

TEST(FaultSweepTest, MetricsAgreeWithTheSweepReport) {
  // The registry, not the trace, carries the grid and retry numbers. They
  // are recorded at the sites that fill RetryStats, so a metered faulty
  // sweep must reproduce the report's tallies exactly.
  metrics::Registry::global().clear();
  metrics::set_enabled(true);
  SweepReport report;
  faulty_dataset(4, &report);
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  metrics::set_enabled(false);
  metrics::Registry::global().clear();

  const auto total = [&](std::string_view name) {
    for (const metrics::CounterSnapshot& c : snapshot.counters) {
      if (c.name == name) {
        return c.total;
      }
    }
    return std::uint64_t{0};
  };
  ASSERT_GT(report.retry.faults, 0u);
  EXPECT_EQ(total("sweep.grid_points"), report.grid_points);
  EXPECT_EQ(total("sweep.failed_points"), report.failed_points);
  EXPECT_EQ(total("retry.attempts"), report.retry.attempts);
  EXPECT_EQ(total("retry.retries"), report.retry.retries);
  EXPECT_EQ(total("retry.faults"), report.retry.faults);

  const auto backoff = std::find_if(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [](const metrics::HistogramSnapshot& h) {
        return h.name == "retry.backoff_s";
      });
  ASSERT_NE(backoff, snapshot.histograms.end());
  EXPECT_EQ(backoff->count, report.retry.retries);
  // The histogram sum is order-dependent, so compare within rounding.
  EXPECT_NEAR(backoff->sum, report.retry.simulated_backoff_s,
              1e-12 * report.retry.simulated_backoff_s);
}

TEST(FaultSweepTest, ZeroRateReproducesTheUnfaultedSweepExactly) {
  SweepReport report;
  const Dataset zero_rate = faulty_dataset(4, &report, /*rate=*/0.0);
  EXPECT_EQ(report.failed_points, 0u);
  EXPECT_EQ(report.retry.faults, 0u);
  EXPECT_EQ(report.retry.attempts,
            report.grid_points * 2u /* repetitions */ +
                report.grid_points - test_workloads().size() /* pins */);

  // Same device/seed with NO injector configured at all.
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.01, 0.01}, 0x3);
  synergy::Device device(sim_dev);
  const auto workloads = test_workloads();
  ScopedGlobalPool pool(4);
  SweepOptions options;
  options.repetitions = 2;
  const Dataset plain =
      build_dataset(device, workloads, options,
                    every_nth(device.supported_frequencies(), 16));

  ASSERT_EQ(zero_rate.rows(), plain.rows());
  EXPECT_EQ(zero_rate.time_s, plain.time_s);
  EXPECT_EQ(zero_rate.energy_j, plain.energy_j);
  EXPECT_EQ(zero_rate.groups, plain.groups);
}

} // namespace
} // namespace dsem::core
