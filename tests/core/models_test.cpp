// Domain-specific and general-purpose model behaviour on small but real
// measurement datasets.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "core/ds_model.hpp"
#include "core/evaluation.hpp"
#include "core/gp_model.hpp"
#include "microbench/suite.hpp"
#include "ml/linear.hpp"

namespace dsem::core {
namespace {

// Shared across the suite: the dataset build dominates runtime, every test
// only reads it, and the sweep engine leaves the device's RNG untouched.
struct ModelsState {
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 1};
  synergy::Device device{sim_dev};
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<double> freqs;
  Dataset dataset;

  ModelsState() {
    // The paper's five canonical grids plus intermediate training grids so
    // leave-one-out folds interpolate instead of extrapolating.
    for (int n : {10, 20, 30, 40, 60, 80, 120, 160}) {
      workloads.push_back(std::make_unique<CronosWorkload>(
          cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
          2));
    }
    freqs = every_nth(device.supported_frequencies(), 8); // 25 frequencies
    dataset = build_dataset(device, workloads, 2, freqs);
  }

  static const ModelsState& instance() {
    static const ModelsState state;
    return state;
  }
};

class ModelsTest : public ::testing::Test {
protected:
  ModelsTest()
      : workloads_(ModelsState::instance().workloads),
        freqs_(ModelsState::instance().freqs),
        dataset_(ModelsState::instance().dataset) {}

  const std::vector<std::unique_ptr<Workload>>& workloads_;
  const std::vector<double>& freqs_;
  const Dataset& dataset_;
};

TEST_F(ModelsTest, DsModelFitsTrainingInputsAccurately) {
  DomainSpecificModel model;
  model.train(dataset_);
  // In-sample prediction of the largest grid's raw time curve.
  const int g = dataset_.group_of(workloads_.back()->name());
  const TruthCurves truth = truth_curves(dataset_, g);
  const auto pred = model.predict(workloads_.back()->domain_features(),
                                  truth.freqs_mhz, 1312.0);
  EXPECT_LT(stats::mape(truth.time_s, pred.time_s), 0.05);
  EXPECT_LT(stats::mape(truth.energy_j, pred.energy_j), 0.05);
}

TEST_F(ModelsTest, DsModelSpeedupBaselinedOnPredictedDefault) {
  DomainSpecificModel model;
  model.train(dataset_);
  const auto pred = model.predict(workloads_[2]->domain_features(),
                                  std::vector<double>{1312.0}, 1312.0);
  EXPECT_NEAR(pred.speedup[0], 1.0, 1e-9);
  EXPECT_NEAR(pred.norm_energy[0], 1.0, 1e-9);
}

TEST_F(ModelsTest, DsModelLoocvGeneralizesToHeldOutInput) {
  const auto [truth, pred] =
      hold_out(dataset_, dataset_, dataset_.group_of("40x16x16"),
               DomainSpecificModel());
  // Ratio curves generalize well even when magnitudes interpolate.
  EXPECT_LT(stats::mape(truth.speedup, pred.speedup), 0.05);
  EXPECT_LT(stats::mape(truth.norm_energy, pred.norm_energy), 0.05);
}

TEST_F(ModelsTest, DsModelCustomRegressorPrototype) {
  DomainSpecificModel model(ml::LinearRegressor{});
  model.train(dataset_);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.time_model().name(), "Linear");
}

TEST_F(ModelsTest, DsModelPredictBeforeTrainThrows) {
  DomainSpecificModel model;
  const std::vector<double> features = {10.0, 4.0, 4.0};
  EXPECT_THROW(model.predict(features, freqs_, 1312.0), contract_error);
}

TEST_F(ModelsTest, PredictionParetoIndicesAreValid) {
  DomainSpecificModel model;
  model.train(dataset_);
  const auto pred = model.predict(workloads_[4]->domain_features(), freqs_,
                                  1312.0);
  const auto front = pred.pareto_indices();
  EXPECT_FALSE(front.empty());
  for (std::size_t idx : front) {
    EXPECT_LT(idx, freqs_.size());
  }
}

// One trained GP model shared across the suite: gp.train() is the per-test
// cost, the trained model is immutable, and training through the sweep
// engine does not advance the shared device's RNG.
struct GpState {
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 2};
  synergy::Device device{sim_dev};
  GeneralPurposeModel gp;

  GpState() { gp.train(device, microbench::make_suite(), 1, 16); }

  static GpState& instance() {
    static GpState state;
    return state;
  }
};

class GpModelTest : public ::testing::Test {
protected:
  GpModelTest()
      : device_(GpState::instance().device), gp_(GpState::instance().gp) {}
  synergy::Device& device_;
  const GeneralPurposeModel& gp_;
};

TEST_F(GpModelTest, TrainsOnMicrobenchSuite) {
  const auto suite = microbench::make_suite();
  EXPECT_TRUE(gp_.trained());
  EXPECT_EQ(gp_.training_rows(), suite.size() * (196 / 16 + 1));
}

TEST_F(GpModelTest, PredictsReasonableCurveForMicrobenchLikeKernel) {
  // A compute-heavy profile: speedup should increase with frequency.
  sim::KernelProfile p;
  p.float_add = 512.0;
  p.float_mul = 512.0;
  p.global_bytes = 16.0;
  const std::vector<double> freqs = {400.0, 800.0, 1200.0, 1597.0};
  const auto pred = gp_.predict(p, freqs, 1312.0);
  EXPECT_LT(pred.speedup.front(), 1.0);
  EXPECT_GT(pred.speedup.back(), 1.0);
}

TEST_F(GpModelTest, BaselineNormalizedToUnity) {
  sim::KernelProfile p;
  p.float_add = 64.0;
  p.global_bytes = 256.0;
  const auto pred = gp_.predict(p, std::vector<double>{1312.0}, 1312.0);
  EXPECT_NEAR(pred.speedup[0], 1.0, 1e-9);
  EXPECT_NEAR(pred.norm_energy[0], 1.0, 1e-9);
}

TEST_F(GpModelTest, SameMixSameCurveRegardlessOfInputSize) {
  // Structural blindness: the GP model cannot distinguish input sizes.
  const GeneralPurposeModel& gp = gp_;
  const LigenWorkload small(2, 89, 8);
  const LigenWorkload large(100000, 89, 8);
  const std::vector<double> freqs = {500.0, 1000.0, 1500.0};
  const auto ps = gp.predict(small.aggregate_profile(), freqs, 1312.0);
  const auto pl = gp.predict(large.aggregate_profile(), freqs, 1312.0);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(ps.speedup[i], pl.speedup[i], 1e-9);
    EXPECT_NEAR(ps.norm_energy[i], pl.norm_energy[i], 1e-9);
  }
}

TEST_F(GpModelTest, PredictBeforeTrainThrows) {
  GeneralPurposeModel gp;
  sim::KernelProfile p;
  p.float_add = 1.0;
  EXPECT_THROW(gp.predict(p, std::vector<double>{1000.0}, 1312.0),
               contract_error);
}

TEST_F(GpModelTest, ValidatesTrainingArguments) {
  GeneralPurposeModel gp;
  EXPECT_THROW(gp.train(device_, {}, 1, 4), contract_error);
  const auto suite = microbench::make_suite();
  EXPECT_THROW(gp.train(device_, suite, 0, 4), contract_error);
  EXPECT_THROW(gp.train(device_, suite, 1, 0), contract_error);
}

} // namespace
} // namespace dsem::core
