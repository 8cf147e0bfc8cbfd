// Golden "dsem-model-v1" artifact: the committed file pins the saved bytes
// of serve_test::synthetic_artifact(kSeed), and its companion grid file
// pins what the loaded model answers on a fixed query grid, as IEEE bit
// patterns. Together they hold the model format and the forest walk to
// the code that wrote them: a change to the tree storage must save the
// same bytes, load files saved before it, and answer them bit for bit.
//
// To regenerate both files after a conscious format change:
//   DSEM_WRITE_GOLDEN=1 ./dsem_serve_tests --gtest_filter=GoldenModel.*
// then commit the rewritten tests/data/golden_model_synthetic_v1*.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelArtifact;

constexpr std::uint64_t kSeed = 13;

std::string data_path(const char* name) {
  return std::string(DSEM_TEST_DATA_DIR) + "/" + name;
}

const std::string& golden_path() {
  static const std::string path = data_path("golden_model_synthetic_v1.json");
  return path;
}

const std::string& grid_path() {
  static const std::string path =
      data_path("golden_model_synthetic_v1_grid.txt");
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void append_bits(std::string& out, const std::vector<double>& values) {
  for (const double v : values) {
    char hex[20];
    std::snprintf(hex, sizeof hex, " %016" PRIx64,
                  std::bit_cast<std::uint64_t>(v));
    out += hex;
  }
}

// The fixed query grid: inputs inside, on the edge of and outside the
// training box, each over the training clocks plus clocks between and
// beyond them. One line per input: the four curves of predict(), then
// the time and energy regressors' predict_many over the same rows.
std::string grid_answers(const ModelArtifact& artifact) {
  const std::vector<double> freqs = {400,  600,  700,  800,  1000,
                                     1100, 1200, 1400, 1500, 2000};
  std::string out;
  for (const double a : {4.0, 8.0, 60.0, 160.0, 400.0}) {
    for (const double b : {2.0, 11.0, 24.0}) {
      for (const double c : {16.0, 2500.0, 10000.0}) {
        const std::vector<double> features = {a, b, c};
        const core::Prediction p = artifact.predict(features, freqs);
        ml::Matrix rows(freqs.size(), features.size() + 1);
        for (std::size_t i = 0; i < freqs.size(); ++i) {
          auto row = rows.row(i);
          std::copy(features.begin(), features.end(), row.begin());
          row.back() = freqs[i];
        }
        out += "q";
        append_bits(out, p.time_s);
        append_bits(out, p.energy_j);
        append_bits(out, p.speedup);
        append_bits(out, p.norm_energy);
        append_bits(out, artifact.ds->time_model().predict_many(rows));
        append_bits(out, artifact.ds->energy_model().predict_many(rows));
        out += '\n';
      }
    }
  }
  return out;
}

bool regenerate() {
  if (std::getenv("DSEM_WRITE_GOLDEN") == nullptr) {
    return false;
  }
  const ModelArtifact artifact = serve_test::synthetic_artifact(kSeed);
  artifact.save_file(golden_path());
  std::ofstream(grid_path(), std::ios::binary) << grid_answers(artifact);
  return true;
}

TEST(GoldenModel, FreshArtifactSavesTheGoldenBytes) {
  if (regenerate()) {
    GTEST_SKIP() << "golden regenerated: " << golden_path();
  }
  const std::string expected = slurp(golden_path());
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << golden_path()
      << " (regenerate with DSEM_WRITE_GOLDEN=1 and commit it)";
  const std::string path = testing::TempDir() + "dsem_golden_fresh.json";
  serve_test::synthetic_artifact(kSeed).save_file(path);
  EXPECT_EQ(slurp(path), expected)
      << "a fresh synthetic artifact diverged from "
         "golden_model_synthetic_v1.json";
  std::filesystem::remove(path);
}

TEST(GoldenModel, LoadedGoldenAnswersTheGridBitIdentically) {
  const std::string expected = slurp(grid_path());
  ASSERT_FALSE(expected.empty()) << "missing golden file " << grid_path();
  const ModelArtifact loaded = ModelArtifact::load_file(golden_path());
  EXPECT_EQ(grid_answers(loaded), expected);
  // A freshly trained artifact answers the same grid the same way.
  EXPECT_EQ(grid_answers(serve_test::synthetic_artifact(kSeed)), expected);
}

TEST(GoldenModel, LoadSaveReproducesTheFile) {
  const std::string expected = slurp(golden_path());
  ASSERT_FALSE(expected.empty()) << "missing golden file " << golden_path();
  const std::string path = testing::TempDir() + "dsem_golden_resaved.json";
  ModelArtifact::load_file(golden_path()).save_file(path);
  EXPECT_EQ(slurp(path), expected);
  std::filesystem::remove(path);
}

} // namespace
