// One process pool: every parallel layer runs on ThreadPool::global(), so
// a serial global pool makes the whole stack serial. Leave-one-input-out
// evaluation is the deepest nesting in the library (folds, then a forest
// fit per fold, then the tree builds inside it); under a one-worker pool
// none of it may reach a pool queue.
#include <algorithm>
#include <memory>
#include <string_view>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/evaluation.hpp"
#include "microbench/suite.hpp"

namespace dsem::core {
namespace {

bool recorded(const metrics::Snapshot& snapshot, std::string_view name) {
  return std::any_of(snapshot.counters.begin(), snapshot.counters.end(),
                     [&](const metrics::CounterSnapshot& c) {
                       return c.name == name;
                     });
}

TEST(OnePool, SerialPoolRunsTheForestFitsInsideEachFoldInline) {
  ScopedGlobalPool pool(1);
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.01, 0.01}, 0x0D5);
  synergy::Device device(sim_dev);
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const int n : {10, 20, 40}) {
    workloads.push_back(std::make_unique<CronosWorkload>(
        cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
        2));
  }
  const auto all = device.supported_frequencies();
  std::vector<double> freqs;
  for (std::size_t i = 0; i < all.size(); i += 16) {
    freqs.push_back(all[i]);
  }
  const Dataset dataset = build_dataset(device, workloads, 2, freqs);
  sim::Device gp_sim(sim::v100(), sim::NoiseConfig::none(), 0x69);
  synergy::Device gp_device(gp_sim);
  GeneralPurposeModel gp;
  gp.train(gp_device, microbench::make_suite(), 1, 32);

  metrics::Registry::global().clear();
  metrics::set_enabled(true);
  const AccuracyReport report = evaluate_accuracy(dataset, workloads, gp);
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  metrics::set_enabled(false);
  metrics::Registry::global().clear();

  ASSERT_EQ(report.rows.size(), workloads.size());
  EXPECT_TRUE(recorded(snapshot, "loocv.folds")); // the metering was on
  EXPECT_FALSE(recorded(snapshot, "pool.tasks"));
  EXPECT_FALSE(recorded(snapshot, "pool.steals"));
}

} // namespace
} // namespace dsem::core
