#include "core/workload.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/features.hpp"

namespace dsem::core {
namespace {

class WorkloadTest : public ::testing::Test {
protected:
  WorkloadTest() : sim_dev_(sim::v100(), sim::NoiseConfig::none()),
                   device_(sim_dev_) {}
  sim::Device sim_dev_;
  synergy::Device device_;
};

TEST_F(WorkloadTest, CronosNameAndFeatures) {
  const CronosWorkload w({160, 64, 64}, 10);
  EXPECT_EQ(w.name(), "160x64x64");
  EXPECT_EQ(w.application(), "cronos");
  EXPECT_EQ(w.domain_features(), (std::vector<double>{160.0, 64.0, 64.0}));
  EXPECT_EQ(w.feature_names(),
            (std::vector<std::string>{"grid_x", "grid_y", "grid_z"}));
}

TEST_F(WorkloadTest, LigenNameAndFeatures) {
  const LigenWorkload w(10000, 89, 20);
  EXPECT_EQ(w.name(), "89x20x10000"); // paper's atoms x frags x ligands
  EXPECT_EQ(w.application(), "ligen");
  EXPECT_EQ(w.domain_features(),
            (std::vector<double>{10000.0, 20.0, 89.0}));
  EXPECT_EQ(w.feature_names(),
            (std::vector<std::string>{"ligands", "fragments", "atoms"}));
}

TEST_F(WorkloadTest, CronosSubmitsStepKernels) {
  const CronosWorkload w({20, 8, 8}, 4);
  synergy::Queue queue(device_);
  w.submit(queue);
  EXPECT_EQ(queue.records().size(), 4u * 12u);
}

TEST_F(WorkloadTest, LigenSubmitsBatchKernels) {
  const LigenWorkload w(5000, 31, 4);
  synergy::Queue queue(device_);
  w.submit(queue);
  EXPECT_EQ(queue.records().size(), 4u); // 2 batches x 2 kernels
}

TEST_F(WorkloadTest, AggregateProfilesAreValidAndNonTrivial) {
  const CronosWorkload cw({20, 8, 8});
  const LigenWorkload lw(1000, 31, 4);
  EXPECT_NO_THROW(sim::validate(cw.aggregate_profile()));
  EXPECT_NO_THROW(sim::validate(lw.aggregate_profile()));
  EXPECT_GT(cw.aggregate_profile().total_ops(), 0.0);
  EXPECT_GT(lw.aggregate_profile().total_ops(), 0.0);
}

TEST_F(WorkloadTest, AggregateStaticFeaturesIgnoreInputSize) {
  // The paper's crux: LiGen's static features are identical across input
  // sizes, so a static-feature model cannot distinguish them.
  const LigenWorkload small(2, 89, 8);
  const LigenWorkload large(100000, 89, 8);
  const auto fs = static_feature_vector(small.aggregate_profile());
  const auto fl = static_feature_vector(large.aggregate_profile());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_NEAR(fs[i], fl[i], 1e-12);
  }
}

TEST_F(WorkloadTest, CronosAggregateNearlyGridInvariant) {
  const CronosWorkload small({20, 8, 8});
  const CronosWorkload large({160, 64, 64});
  const auto fs = static_feature_vector(small.aggregate_profile());
  const auto fl = static_feature_vector(large.aggregate_profile());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_NEAR(fs[i], fl[i], 0.06); // only the ghost/interior ratio shifts
  }
}

TEST_F(WorkloadTest, DifferentAppsHaveDifferentMixes) {
  const CronosWorkload cw({40, 16, 16});
  const LigenWorkload lw(1000, 31, 4);
  const auto fc = static_feature_vector(cw.aggregate_profile());
  const auto fl = static_feature_vector(lw.aggregate_profile());
  double l1 = 0.0;
  for (std::size_t i = 0; i < fc.size(); ++i) {
    l1 += std::abs(fc[i] - fl[i]);
  }
  EXPECT_GT(l1, 0.2);
}

TEST_F(WorkloadTest, ValidationOfParameters) {
  EXPECT_THROW(CronosWorkload({8, 8, 8}, 0), contract_error);
  EXPECT_THROW(LigenWorkload(0, 31, 4), contract_error);
  EXPECT_THROW(LigenWorkload(10, 1, 1), contract_error);
}

TEST_F(WorkloadTest, FromFeaturesRejectsValuesOutsideIntRange) {
  // 2^32 + 10 must not wrap to 10 (the 10x8x8 grid, the 10-ligand screen).
  const double wrapped = 4294967306.0;
  EXPECT_THROW(workload_from_features("cronos", std::vector<double>{
                                                    wrapped, 8.0, 8.0}),
               contract_error);
  EXPECT_THROW(workload_from_features("ligen", std::vector<double>{
                                                   wrapped, 4.0, 31.0}),
               contract_error);
  EXPECT_THROW(workload_from_features("cronos", std::vector<double>{
                                                    8.0, -wrapped, 8.0}),
               contract_error);
  EXPECT_THROW(workload_from_features("ligen", std::vector<double>{
                                                   16.0, 4.0, 1e300}),
               contract_error);
  // In-range features still round to the nearest integer.
  EXPECT_EQ(workload_from_features("cronos",
                                   std::vector<double>{10.4, 8.0, 7.6})
                ->name(),
            "10x8x8");
  EXPECT_EQ(workload_from_features("ligen",
                                   std::vector<double>{10.0, 4.0, 31.0})
                ->name(),
            LigenWorkload(10, 31, 4).name());
}

} // namespace
} // namespace dsem::core
