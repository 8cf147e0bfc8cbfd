// Grouped regression suite for the hybrid model family's evaluation
// pipeline, pinned against the golden Cronos/V100 training sweep under
// tests/data/ (exported with `frequency_advisor --dataset-out`, see
// EXPERIMENTS.md). The hybrid family is the domain-specific model scored
// on the fused dataset (core::fuse_dataset), so every check runs the same
// evaluation twice — plain rows for DS, fused rows for hybrid:
//   - the extrapolation split (largest grid held out) where the hybrid
//     model must beat the static-feature GP baseline on MAPE by a margin,
//   - a MiniFig-style GP | DS | hybrid accuracy golden, bit-identical for
//     thread pools of size 1, 2, and 8.
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/evaluation.hpp"
#include "core/kernel_features.hpp"
#include "microbench/suite.hpp"
#include "ml/forest.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace dsem::core {
namespace {

// Seeds matching the two families' library defaults, so the pinned values
// track what fig01 reports with default prototypes.
constexpr std::uint64_t kDsSeed = 0x05d5;
constexpr std::uint64_t kHybridSeed = 0x4b1d;

// Shared lazily-built fixture: the golden dataset, its fused twin, its
// workload grid, and a GP baseline trained on the microbenchmark suite
// (the expensive part).
struct EvalFixture {
  Dataset dataset;
  Dataset fused;
  std::vector<std::unique_ptr<Workload>> workloads;
  GeneralPurposeModel gp;
};

EvalFixture& fixture() {
  static EvalFixture* state = [] {
    auto* s = new EvalFixture;
    s->dataset = load_dataset(std::string(DSEM_TEST_DATA_DIR) +
                              "/golden_hybrid_cronos_v100.json");
    s->workloads = serve::training_set("cronos", /*compact=*/false);
    s->fused = fuse_dataset(s->dataset, s->workloads, sim::v100());
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig::none());
    synergy::Device device(sim_dev);
    SweepOptions options;
    s->gp.train(device, microbench::make_suite(), options, 16);
    return s;
  }();
  return *state;
}

ml::RandomForestRegressor prototype(std::uint64_t seed) {
  ml::ForestParams params;
  params.seed = seed;
  return ml::RandomForestRegressor(params);
}

/// The six golden columns of one input: GP, DS, hybrid speedup MAPE, then
/// GP, DS, hybrid energy MAPE. GP and DS come from the plain-row report.
std::vector<double> family_columns(const AccuracyRow& ds,
                                   const AccuracyRow& hybrid) {
  return {ds.gp_speedup_mape, ds.ds_speedup_mape, hybrid.ds_speedup_mape,
          ds.gp_energy_mape,  ds.ds_energy_mape,  hybrid.ds_energy_mape};
}

std::string render(const AccuracyReport& ds, const AccuracyReport& hybrid) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t r = 0; r < ds.rows.size(); ++r) {
    const std::vector<double> columns =
        family_columns(ds.rows[r], hybrid.rows[r]);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      os << columns[c] << (c + 1 < columns.size() ? " " : "\n");
    }
  }
  return os.str();
}

double mean(const AccuracyReport& report, double AccuracyRow::*column) {
  double sum = 0.0;
  for (const AccuracyRow& row : report.rows) {
    sum += row.*column;
  }
  return sum / static_cast<double>(report.rows.size());
}

TEST(HybridEvalTest, WorkloadGridMatchesTheGoldenDataset) {
  EvalFixture& f = fixture();
  ASSERT_EQ(f.workloads.size(), f.dataset.num_groups());
  for (std::size_t g = 0; g < f.workloads.size(); ++g) {
    EXPECT_EQ(f.workloads[g]->name(), f.dataset.group_names[g]);
    EXPECT_TRUE(f.dataset.group_ok(static_cast<int>(g)));
  }
}

TEST(HybridEvalTest, HybridBeatsGpOnTheExtrapolationSplit) {
  EvalFixture& f = fixture();
  const ml::RandomForestRegressor hybrid(hybrid_forest_params());
  const ExtrapolationReport ds =
      evaluate_extrapolation(f.dataset, f.workloads, f.gp);
  const ExtrapolationReport hy =
      evaluate_extrapolation(f.fused, f.workloads, f.gp, 1, &hybrid);
  ASSERT_EQ(ds.held_out.size(), 1u);
  EXPECT_EQ(ds.held_out.front(), "160x64x64");
  EXPECT_EQ(hy.held_out, ds.held_out);

  const std::string table = render(ds.accuracy, hy.accuracy);
  const double gp_speedup = mean(ds.accuracy, &AccuracyRow::gp_speedup_mape);
  const double gp_energy = mean(ds.accuracy, &AccuracyRow::gp_energy_mape);
  const double ds_speedup = mean(ds.accuracy, &AccuracyRow::ds_speedup_mape);
  const double ds_energy = mean(ds.accuracy, &AccuracyRow::ds_energy_mape);
  const double hy_speedup = mean(hy.accuracy, &AccuracyRow::ds_speedup_mape);
  const double hy_energy = mean(hy.accuracy, &AccuracyRow::ds_energy_mape);
  // The pinned margin: off the training grid, the fused static+dynamic
  // features must beat the input-size-blind GP baseline clearly, not
  // narrowly (fig01 shows ~12x on speedup, ~3x on energy).
  EXPECT_LT(hy_speedup, 0.5 * gp_speedup) << table;
  EXPECT_LT(hy_energy, 0.75 * gp_energy) << table;
  // And it must stay in the domain-specific family's accuracy class.
  EXPECT_LT(hy_speedup, 2.0 * ds_speedup) << table;
  EXPECT_LT(hy_energy, 2.0 * ds_energy) << table;
}

TEST(HybridEvalTest, FamilyAccuracyGoldenForPools128) {
  EvalFixture& f = fixture();
  struct Reports {
    AccuracyReport ds;
    AccuracyReport hybrid;
  };
  std::vector<Reports> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScopedGlobalPool pool(threads);
    const ml::RandomForestRegressor ds_proto = prototype(kDsSeed);
    const ml::RandomForestRegressor hy_proto = prototype(kHybridSeed);
    reports.push_back(
        {evaluate_accuracy(f.dataset, f.workloads, f.gp, /*report=*/{},
                           &ds_proto),
         evaluate_accuracy(f.fused, f.workloads, f.gp, /*report=*/{},
                           &hy_proto)});
  }

  // Both families cover every group in group order, and pool size must
  // not leak into a single bit of either evaluation.
  const Reports& serial = reports[0];
  ASSERT_EQ(serial.ds.rows.size(), f.dataset.num_groups());
  ASSERT_EQ(serial.hybrid.rows.size(), f.dataset.num_groups());
  for (std::size_t r = 0; r < serial.ds.rows.size(); ++r) {
    EXPECT_EQ(serial.ds.rows[r].input, f.dataset.group_names[r]);
    EXPECT_EQ(serial.hybrid.rows[r].input, f.dataset.group_names[r]);
  }
  for (std::size_t p = 1; p < reports.size(); ++p) {
    for (std::size_t r = 0; r < serial.ds.rows.size(); ++r) {
      EXPECT_EQ(family_columns(serial.ds.rows[r], serial.hybrid.rows[r]),
                family_columns(reports[p].ds.rows[r],
                               reports[p].hybrid.rows[r]))
          << serial.ds.rows[r].input;
    }
  }

  // MiniFig golden: 6 MAPE columns per input, pinned under tests/data/ at
  // precision 17 (which round-trips doubles), so the comparison is exact.
  // Any change to the models, the feature extractor, or the evaluation
  // that moves these must be a conscious decision — update the golden
  // with the rendered values below if it is.
  const std::string path =
      std::string(DSEM_TEST_DATA_DIR) + "/golden_threeway_cronos_v100.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<double> golden;
  double value = 0.0;
  while (in >> value) {
    golden.push_back(value);
  }
  const std::string table = render(serial.ds, serial.hybrid);
  ASSERT_EQ(golden.size(), serial.ds.rows.size() * 6)
      << "golden size changed; actual report:\n" << table;
  for (std::size_t r = 0; r < serial.ds.rows.size(); ++r) {
    const std::vector<double> actual =
        family_columns(serial.ds.rows[r], serial.hybrid.rows[r]);
    for (std::size_t c = 0; c < actual.size(); ++c) {
      EXPECT_EQ(actual[c], golden[r * 6 + c])
          << "row " << r << " col " << c << "; actual report:\n" << table;
    }
  }
}

} // namespace
} // namespace dsem::core
