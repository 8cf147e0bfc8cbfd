// Determinism contract of the parallel sweep engine (core/sweep.hpp):
// characterization, dataset collection, and the models trained on them
// must be BIT-identical for any thread-pool size — pool size 1 reproduces
// serial execution exactly.
#include <memory>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/characterization.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"

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

Characterization characterize_with(std::size_t threads) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.015, 0.015}, 0x077);
  synergy::Device device(sim_dev);
  const CronosWorkload workload(cronos::GridDims{20, 8, 8}, 2);

  ScopedGlobalPool pool(threads);
  SweepOptions options;
  options.repetitions = 3;
  return characterize(device, workload, options,
                      every_nth(device.supported_frequencies(), 8));
}

void expect_identical(const Characterization& a, const Characterization& b) {
  EXPECT_EQ(a.default_freq_mhz, b.default_freq_mhz);
  EXPECT_EQ(a.default_time_s, b.default_time_s);
  EXPECT_EQ(a.default_energy_j, b.default_energy_j);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].freq_mhz, b.points[i].freq_mhz) << i;
    EXPECT_EQ(a.points[i].time_s, b.points[i].time_s) << i;
    EXPECT_EQ(a.points[i].energy_j, b.points[i].energy_j) << i;
    EXPECT_EQ(a.points[i].speedup, b.points[i].speedup) << i;
    EXPECT_EQ(a.points[i].norm_energy, b.points[i].norm_energy) << i;
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto) << i;
  }
  EXPECT_EQ(a.pareto_indices(), b.pareto_indices());
}

TEST(SweepDeterminism, CharacterizeBitIdenticalAcrossPoolSizes) {
  const Characterization serial = characterize_with(1);
  expect_identical(serial, characterize_with(2));
  expect_identical(serial, characterize_with(8));
}

Dataset dataset_with(std::size_t threads) {
  sim::Device sim_dev(sim::v100(), sim::NoiseConfig{0.01, 0.01}, 0x0D5);
  synergy::Device device(sim_dev);
  const auto workloads = test_workloads();

  ScopedGlobalPool pool(threads);
  SweepOptions options;
  options.repetitions = 2;
  return build_dataset(device, workloads, options,
                       every_nth(device.supported_frequencies(), 16));
}

TEST(SweepDeterminism, DatasetBitIdenticalAcrossPoolSizes) {
  const Dataset serial = dataset_with(1);
  for (std::size_t threads : {2, 8}) {
    const Dataset parallel = dataset_with(threads);
    ASSERT_EQ(serial.rows(), parallel.rows());
    EXPECT_EQ(serial.time_s, parallel.time_s);
    EXPECT_EQ(serial.energy_j, parallel.energy_j);
    EXPECT_EQ(serial.groups, parallel.groups);
    EXPECT_EQ(serial.group_names, parallel.group_names);
    EXPECT_EQ(serial.default_freq_mhz, parallel.default_freq_mhz);
    ASSERT_EQ(serial.group_default.size(), parallel.group_default.size());
    for (std::size_t g = 0; g < serial.group_default.size(); ++g) {
      EXPECT_EQ(serial.group_default[g], parallel.group_default[g]) << g;
    }
    ASSERT_EQ(serial.x.rows(), parallel.x.rows());
    ASSERT_EQ(serial.x.cols(), parallel.x.cols());
    const auto sx = serial.x.data();
    const auto px = parallel.x.data();
    for (std::size_t i = 0; i < sx.size(); ++i) {
      ASSERT_EQ(sx[i], px[i]) << "matrix element " << i;
    }
  }
}

TEST(SweepDeterminism, TrainedModelPredictionsBitIdenticalAcrossPoolSizes) {
  // End of the chain: a model trained on a parallel-collected dataset must
  // predict exactly what a model trained on the serial dataset predicts.
  const Dataset serial = dataset_with(1);
  const Dataset parallel = dataset_with(8);

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
  EXPECT_EQ(a.pareto_indices(), b.pareto_indices());
}

} // namespace
} // namespace dsem::core
