// One process pool: every parallel layer runs on ThreadPool::global(), so
// a serial global pool makes the whole stack serial. Leave-one-input-out
// evaluation trains a model per fold, each a forest fit whose trees fan
// out on the pool; under a one-worker pool none of it may reach a pool
// queue, and under any pool the folds run one at a time.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string_view>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/evaluation.hpp"
#include "microbench/suite.hpp"
#include "ml/forest.hpp"

namespace dsem::core {
namespace {

bool recorded(const metrics::Snapshot& snapshot, std::string_view name) {
  return std::any_of(snapshot.counters.begin(), snapshot.counters.end(),
                     [&](const metrics::CounterSnapshot& c) {
                       return c.name == name;
                     });
}

// Cronos grids of edge `sizes`, swept over every 16th V100 clock.
std::vector<std::unique_ptr<Workload>> cronos_workloads(
    std::initializer_list<int> sizes) {
  std::vector<std::unique_ptr<Workload>> workloads;
  for (const int n : sizes) {
    workloads.push_back(std::make_unique<CronosWorkload>(
        cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
        2));
  }
  return workloads;
}

Dataset sweep(const std::vector<std::unique_ptr<Workload>>& workloads) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.01, 0.01}, 0x0D5);
  synergy::Device device(sim_dev);
  const auto all = device.supported_frequencies();
  std::vector<double> freqs;
  for (std::size_t i = 0; i < all.size(); i += 16) {
    freqs.push_back(all[i]);
  }
  return build_dataset(device, workloads, 2, freqs);
}

GeneralPurposeModel trained_gp() {
  sim::Device gp_sim(sim::v100(), sim::NoiseConfig::none(), 0x69);
  synergy::Device gp_device(gp_sim);
  GeneralPurposeModel gp;
  gp.train(gp_device, microbench::make_suite(), 1, 32);
  return gp;
}

// The clones of one prototype: how many were made, and the high-water
// mark of how many were alive at once.
struct CloneCount {
  std::atomic<int> total{0};
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
};

// A random forest whose clones count themselves alive in a CloneCount:
// a fold model is two clones of the evaluation's prototype.
class CountingForest final : public ml::Regressor {
public:
  explicit CountingForest(std::shared_ptr<CloneCount> count,
                          bool counted = false)
      : count_(std::move(count)), counted_(counted),
        forest_(ml::ForestParams{.n_estimators = 16}) {
    if (counted_) {
      ++count_->total;
      const int now = ++count_->live;
      int peak = count_->peak.load();
      while (now > peak && !count_->peak.compare_exchange_weak(peak, now)) {
      }
    }
  }
  CountingForest(const CountingForest&) = delete;
  CountingForest& operator=(const CountingForest&) = delete;
  ~CountingForest() override {
    if (counted_) {
      --count_->live;
    }
  }

  void fit(const ml::Matrix& x, std::span<const double> y) override {
    forest_.fit(x, y);
  }
  double predict_one(std::span<const double> x) const override {
    return forest_.predict_one(x);
  }
  std::unique_ptr<Regressor> clone() const override {
    return std::make_unique<CountingForest>(count_, true);
  }
  std::string name() const override { return "CountingForest"; }

private:
  std::shared_ptr<CloneCount> count_;
  bool counted_;
  ml::RandomForestRegressor forest_;
};

TEST(OnePool, SerialPoolRunsTheForestFitsInsideEachFoldInline) {
  ScopedGlobalPool pool(1);
  const auto workloads = cronos_workloads({10, 20, 40});
  const Dataset dataset = sweep(workloads);
  const GeneralPurposeModel gp = trained_gp();

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

// A fold model is two forests of full-depth trees, the largest thing a
// LOOCV run holds. With the folds run one after another, a wide pool
// still holds one fold's time and energy clones at a time. The
// extrapolation split trains one model for all its held-out groups.
TEST(OnePool, LoocvKeepsOneFoldModelAlive) {
  ScopedGlobalPool pool(4);
  const auto workloads = cronos_workloads({10, 16, 20, 28, 40});
  const Dataset dataset = sweep(workloads);
  const GeneralPurposeModel gp = trained_gp();
  auto count = std::make_shared<CloneCount>();
  const CountingForest prototype(count);

  const AccuracyReport loocv =
      evaluate_accuracy(dataset, workloads, gp, {}, &prototype);
  EXPECT_EQ(loocv.rows.size(), workloads.size());
  EXPECT_EQ(count->total.load(), 2 * static_cast<int>(workloads.size()));
  EXPECT_EQ(count->peak.load(), 2);
  EXPECT_EQ(count->live.load(), 0);

  count->total = 0;
  count->peak = 0;
  const ExtrapolationReport extrapolation =
      evaluate_extrapolation(dataset, workloads, gp, 3, &prototype);
  EXPECT_EQ(extrapolation.accuracy.rows.size(), 3u);
  EXPECT_EQ(count->total.load(), 2);
  EXPECT_EQ(count->peak.load(), 2);
  EXPECT_EQ(count->live.load(), 0);
}

} // namespace
} // namespace dsem::core
