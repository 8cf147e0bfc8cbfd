#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include "microbench/suite.hpp"

namespace dsem::core {
namespace {

// Building the dataset and training the GP model dominate this suite's
// wall-clock. The tests only read them, and the sweep engine never touches
// the shared device's RNG, so one lazily-built fixture serves every test.
struct EvalState {
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 5};
  synergy::Device device{sim_dev};
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<double> freqs;
  Dataset dataset;
  GeneralPurposeModel gp;

  EvalState() {
    // Canonical grids plus intermediates (interpolating LOOCV folds).
    for (int n : {10, 20, 30, 40, 60, 80, 120, 160}) {
      workloads.push_back(std::make_unique<CronosWorkload>(
          cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
          2));
    }
    freqs = every_nth(device.supported_frequencies(), 8);
    dataset = build_dataset(device, workloads, 2, freqs);
    gp.train(device, microbench::make_suite(), 1, 16);
  }

  static const EvalState& instance() {
    static const EvalState state;
    return state;
  }
};

class EvaluationTest : public ::testing::Test {
protected:
  EvaluationTest()
      : workloads_(EvalState::instance().workloads),
        freqs_(EvalState::instance().freqs),
        dataset_(EvalState::instance().dataset),
        gp_(EvalState::instance().gp) {}

  const std::vector<std::unique_ptr<Workload>>& workloads_;
  const std::vector<double>& freqs_;
  const Dataset& dataset_;
  const GeneralPurposeModel& gp_;
};

TEST_F(EvaluationTest, TruthCurvesNormalizeAtDefault) {
  const TruthCurves t = truth_curves(dataset_, 0);
  ASSERT_EQ(t.freqs_mhz.size(), freqs_.size());
  // The default frequency is not in the strided list, but the curve must
  // bracket speedup 1 around it.
  EXPECT_LT(t.speedup.front(), 1.0);
  EXPECT_GT(t.speedup.back(), 0.9);
}

TEST_F(EvaluationTest, AccuracyReportCoversAllGroupsByDefault) {
  const auto report = evaluate_accuracy(dataset_, workloads_, gp_);
  EXPECT_EQ(report.rows.size(), workloads_.size());
}

TEST_F(EvaluationTest, AccuracyReportHonoursSubset) {
  const std::vector<std::string> subset = {workloads_[1]->name()};
  const auto report = evaluate_accuracy(dataset_, workloads_, gp_, subset);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].input, workloads_[1]->name());
}

TEST_F(EvaluationTest, DomainSpecificBeatsGeneralPurpose) {
  // The paper's headline on a reduced sweep: DS MAPE < GP MAPE on every
  // reported (canonical) input.
  const std::vector<std::string> reported = {"10x4x4", "20x8x8", "40x16x16",
                                             "80x32x32", "160x64x64"};
  const auto report = evaluate_accuracy(dataset_, workloads_, gp_, reported);
  for (const auto& row : report.rows) {
    EXPECT_LT(row.ds_speedup_mape, row.gp_speedup_mape) << row.input;
    EXPECT_LT(row.ds_energy_mape, row.gp_energy_mape) << row.input;
    EXPECT_LT(row.ds_speedup_mape, 0.05) << row.input;
    EXPECT_LT(row.ds_energy_mape, 0.05) << row.input;
  }
  EXPECT_GT(report.worst_speedup_gain(), 1.0);
  EXPECT_GT(report.worst_energy_gain(), 1.0);
}

TEST_F(EvaluationTest, ParetoEvaluationProducesConsistentFronts) {
  const auto eval = evaluate_pareto(dataset_, workloads_,
                                    workloads_.back()->name(), gp_);
  EXPECT_FALSE(eval.true_front.empty());
  EXPECT_FALSE(eval.ds_front.empty());
  EXPECT_FALSE(eval.gp_front.empty());
  EXPECT_EQ(eval.ds_cmp.true_size, eval.true_front.size());
  EXPECT_EQ(eval.gp_cmp.true_size, eval.true_front.size());
  for (std::size_t idx : eval.ds_front) {
    EXPECT_LT(idx, eval.truth.freqs_mhz.size());
  }
}

TEST_F(EvaluationTest, DsParetoCloserToTruthThanGp) {
  const auto eval = evaluate_pareto(dataset_, workloads_,
                                    workloads_.back()->name(), gp_);
  // §5.2.2: the DS front approximates the true front at least as well.
  EXPECT_LE(eval.ds_cmp.generational_distance,
            eval.gp_cmp.generational_distance + 0.02);
}

/// hold_out against the fold written out by hand: a default model trained
/// on the rows of `train` outside g and queried with the workload's own
/// domain features, scored on `truth`'s curves. Bit for bit, every group.
void expect_hand_rolled_folds(
    const Dataset& train, const Dataset& truth,
    const std::vector<std::unique_ptr<Workload>>& workloads) {
  for (int g = 0; g < static_cast<int>(train.num_groups()); ++g) {
    SCOPED_TRACE(g);
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < train.rows(); ++i) {
      if (train.groups[i] != g) {
        rows.push_back(i);
      }
    }
    DomainSpecificModel model;
    model.train(train, rows);
    const TruthCurves expected_truth = truth_curves(truth, g);
    const auto ug = static_cast<std::size_t>(g);
    const Prediction expected =
        model.predict(workloads[ug]->domain_features(),
                      expected_truth.freqs_mhz, truth.default_freq_mhz[ug]);

    const HeldOut fold = hold_out(train, truth, g, DomainSpecificModel());
    EXPECT_EQ(fold.truth.freqs_mhz, expected_truth.freqs_mhz);
    EXPECT_EQ(fold.truth.speedup, expected_truth.speedup);
    EXPECT_EQ(fold.truth.norm_energy, expected_truth.norm_energy);
    EXPECT_EQ(fold.truth.time_s, expected_truth.time_s);
    EXPECT_EQ(fold.predicted.freqs_mhz, expected.freqs_mhz);
    EXPECT_EQ(fold.predicted.time_s, expected.time_s);
    EXPECT_EQ(fold.predicted.energy_j, expected.energy_j);
    EXPECT_EQ(fold.predicted.speedup, expected.speedup);
    EXPECT_EQ(fold.predicted.norm_energy, expected.norm_energy);
  }
}

TEST_F(EvaluationTest, HoldOutMatchesHandRolledFold) {
  // One dataset trains and scores.
  expect_hand_rolled_folds(dataset_, dataset_, workloads_);

  // A stride-subsampled training sweep scored against the fuller grid:
  // the predicted curve covers every truth frequency.
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 5};
  synergy::Device device{sim_dev};
  const Dataset strided =
      build_dataset(device, workloads_, 2, every_nth(freqs_, 2));
  ASSERT_LT(strided.rows(), dataset_.rows());
  expect_hand_rolled_folds(strided, dataset_, workloads_);
}

TEST_F(EvaluationTest, HoldOutRejectsMismatchedGroupLists) {
  Dataset renamed = dataset_;
  renamed.group_names.front() = "renamed";
  Dataset fewer = dataset_;
  fewer.group_names.pop_back();
  for (const Dataset* other : {&renamed, &fewer}) {
    EXPECT_THROW(hold_out(dataset_, *other, 1, DomainSpecificModel()),
                 dsem::contract_error);
    EXPECT_THROW(hold_out(*other, dataset_, 1, DomainSpecificModel()),
                 dsem::contract_error);
  }
}

TEST(AccuracyReport, WorstGainsOverEmptyReportThrow) {
  // Regression: these used to return *max_element of an empty range.
  const AccuracyReport report;
  EXPECT_THROW(report.worst_speedup_gain(), dsem::contract_error);
  EXPECT_THROW(report.worst_energy_gain(), dsem::contract_error);
}

TEST_F(EvaluationTest, MismatchedWorkloadListRejected) {
  std::vector<std::unique_ptr<Workload>> short_list;
  short_list.push_back(std::make_unique<CronosWorkload>(
      cronos::GridDims{10, 4, 4}, 2));
  EXPECT_THROW(evaluate_accuracy(dataset_, short_list, gp_),
               dsem::contract_error);
}

TEST_F(EvaluationTest, UnknownTargetInputRejected) {
  EXPECT_THROW(evaluate_pareto(dataset_, workloads_, "999x999x999", gp_),
               dsem::contract_error);
}

} // namespace
} // namespace dsem::core
