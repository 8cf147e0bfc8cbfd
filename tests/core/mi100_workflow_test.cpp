// The modeling workflow on the AMD device, where there is no fixed default
// clock: the baseline of speedup / normalized energy is the auto
// performance level's pick (paper §3.1, Fig. 5).
#include <gtest/gtest.h>

#include "common/statistics.hpp"
#include "core/evaluation.hpp"

namespace dsem::core {
namespace {

class Mi100WorkflowTest : public ::testing::Test {
protected:
  Mi100WorkflowTest()
      : sim_dev_(sim::mi100(), sim::NoiseConfig{0.01, 0.01}, 0xA3D),
        device_(sim_dev_) {
    for (int n : {10, 20, 30, 40, 60, 80, 120, 160}) {
      const int side = std::max(4, n * 2 / 5);
      workloads_.push_back(std::make_unique<CronosWorkload>(
          cronos::GridDims{n, side, side}, 2));
    }
    const auto all = device_.supported_frequencies();
    for (std::size_t i = 0; i < all.size(); i += 6) {
      freqs_.push_back(all[i]);
    }
    dataset_ = build_dataset(device_, workloads_, 2, freqs_);
  }

  sim::Device sim_dev_;
  synergy::Device device_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::vector<double> freqs_;
  Dataset dataset_;
};

TEST_F(Mi100WorkflowTest, BaselineIsAutoGovernorFrequency) {
  for (double f : dataset_.default_freq_mhz) {
    EXPECT_NEAR(f, 1502.0, 10.0);
  }
}

TEST_F(Mi100WorkflowTest, TruthSpeedupsNeverExceedAuto) {
  for (std::size_t g = 0; g < dataset_.num_groups(); ++g) {
    const TruthCurves truth = truth_curves(dataset_, static_cast<int>(g));
    for (double s : truth.speedup) {
      EXPECT_LE(s, 1.0 + 0.05); // noise margin
    }
  }
}

TEST_F(Mi100WorkflowTest, DsModelAccurateOnHeldOutInput) {
  const auto [truth, pred] =
      hold_out(dataset_, dataset_, dataset_.group_of("80x32x32"),
               DomainSpecificModel());
  EXPECT_LT(stats::mape(truth.norm_energy, pred.norm_energy), 0.06);
  // The MI100 baseline is the max clock, so the speedup curve spans down
  // to ~0.13 at 200 MHz — relative errors at the tiny low-frequency truth
  // values dominate the MAPE; a looser band still rules out regressions.
  EXPECT_LT(stats::mape(truth.speedup, pred.speedup), 0.18);
}

TEST_F(Mi100WorkflowTest, PredictedParetoRecoversDeepSavings) {
  DomainSpecificModel model;
  model.train(dataset_);
  const auto all = device_.supported_frequencies();
  const auto pred = model.predict(workloads_.back()->domain_features(), all,
                                  device_.default_frequency());
  const auto front = pred.pareto_indices();
  ASSERT_FALSE(front.empty());
  // The MI100 characterization offers ~25-30% savings; the predicted
  // Pareto set must expose a config with at least 15% predicted saving.
  double best = 0.0;
  for (std::size_t i : front) {
    best = std::max(best, 1.0 - pred.norm_energy[i]);
  }
  EXPECT_GT(best, 0.15);
}

} // namespace
} // namespace dsem::core
