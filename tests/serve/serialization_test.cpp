// Property tests for the dsem-model-v1 artifact serialization: byte-
// stable round trips across many seeds, bit-identical predictions after
// a round trip, and clean contract_error rejection of malformed input.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelArtifact;
using serve_test::kDefaultFreq;
using serve_test::kFreqs;
using serve_test::synthetic_artifact;

TEST(SerializationTest, RoundTripIsByteIdenticalAcrossFiftySeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ModelArtifact artifact = synthetic_artifact(seed);
    const std::string first = artifact.to_json().dump(2);
    const ModelArtifact reloaded =
        ModelArtifact::from_json(json::Value::parse(first));
    const std::string second = reloaded.to_json().dump(2);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(SerializationTest, RoundTripPredictsBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ModelArtifact artifact = synthetic_artifact(seed);
    const ModelArtifact reloaded =
        ModelArtifact::from_json(json::Value::parse(artifact.to_json().dump()));

    // Probe grid: inputs the training distribution covers, plus corners.
    Rng rng(derive_seed(seed, 99));
    for (int probe = 0; probe < 8; ++probe) {
      const std::vector<double> features = {rng.uniform(8.0, 160.0),
                                            rng.uniform(2.0, 24.0),
                                            rng.uniform(16.0, 10000.0)};
      const core::Prediction a =
          artifact.ds->predict(features, kFreqs, kDefaultFreq);
      const core::Prediction b =
          reloaded.ds->predict(features, kFreqs, kDefaultFreq);
      EXPECT_EQ(a.time_s, b.time_s) << "seed " << seed;
      EXPECT_EQ(a.energy_j, b.energy_j) << "seed " << seed;
      EXPECT_EQ(a.speedup, b.speedup) << "seed " << seed;
      EXPECT_EQ(a.norm_energy, b.norm_energy) << "seed " << seed;
    }
  }
}

TEST(SerializationTest, FileRoundTripIsByteIdentical) {
  const ModelArtifact artifact = synthetic_artifact(3);
  const std::string path_a = testing::TempDir() + "dsem_artifact_a.json";
  const std::string path_b = testing::TempDir() + "dsem_artifact_b.json";
  artifact.save_file(path_a);
  ModelArtifact::load_file(path_a).save_file(path_b);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string bytes_a = slurp(path_a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SerializationTest, NonRegularFileIsRejectedBeforeReading) {
  // /dev/zero never ends: an unchecked read grows until bad_alloc.
  try {
    ModelArtifact::load_file("/dev/zero");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/zero"), std::string::npos)
        << e.what();
  }
}

TEST(SerializationTest, SchemaMismatchIsACleanError) {
  json::Value doc = synthetic_artifact(4).to_json();
  doc.set("schema", "dsem-model-v0");
  try {
    ModelArtifact::from_json(doc);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dsem-model-v1"),
              std::string::npos);
  }
}

TEST(SerializationTest, MissingSchemaIsRejected) {
  auto doc = json::Value::object();
  doc.set("kind", "domain-specific");
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
  EXPECT_THROW(ModelArtifact::from_json(json::Value(1.0)), contract_error);
}

TEST(SerializationTest, TruncatedDocumentIsRejected) {
  const std::string full = synthetic_artifact(5).to_json().dump();
  // Any strict prefix either fails to parse or fails validation.
  for (const std::size_t cut : {full.size() / 4, full.size() / 2,
                                full.size() - 2}) {
    EXPECT_THROW(
        ModelArtifact::from_json(json::Value::parse(full.substr(0, cut))),
        contract_error)
        << "cut " << cut;
  }
}

TEST(SerializationTest, UnknownKindIsRejected) {
  json::Value doc = synthetic_artifact(6).to_json();
  doc.set("kind", "bayesian");
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(SerializationTest, TamperedForestIsRejected) {
  json::Value doc = synthetic_artifact(7).to_json();
  // Turn the root into a leaf: every other node becomes unreachable.
  json::Value& tree0 = doc.at("model").at("time").at("trees").as_array()[0];
  json::Value::Array& root = tree0.at("nodes").as_array()[0].as_array();
  root[2] = json::Value(-1);
  root[3] = json::Value(-1);
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(SerializationTest, TreesSplittingPastTheQueryRowAreRejected) {
  // One feature name dropped: requests carry two features and the query
  // row is three columns wide, but the forests still split on column 3
  // (frequency), which that row does not have.
  json::Value doc = synthetic_artifact(9).to_json();
  doc.at("feature_names").as_array().pop_back();
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(SerializationTest, EmptyFrequencyScheduleIsRejected) {
  json::Value doc = synthetic_artifact(8).to_json();
  doc.set("freqs_mhz", json::Value::array());
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(SerializationTest, UntrainedModelRefusesToSerialize) {
  const core::DomainSpecificModel untrained;
  EXPECT_THROW(untrained.to_json(), contract_error);
}

// The hybrid payload mirrors the domain-specific suites above: the same
// byte-stability, prediction-identity, and rejection contracts must hold
// for the third model family.

TEST(HybridSerializationTest, RoundTripIsByteIdenticalAcrossFiftySeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ModelArtifact artifact = serve_test::synthetic_hybrid_artifact(seed);
    const std::string first = artifact.to_json().dump(2);
    const ModelArtifact reloaded =
        ModelArtifact::from_json(json::Value::parse(first));
    ASSERT_EQ(reloaded.kind, serve::ModelKind::kHybrid) << "seed " << seed;
    const std::string second = reloaded.to_json().dump(2);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(HybridSerializationTest, RoundTripPredictsBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ModelArtifact artifact = serve_test::synthetic_hybrid_artifact(seed);
    const ModelArtifact reloaded =
        ModelArtifact::from_json(json::Value::parse(artifact.to_json().dump()));

    // Probe with a training-grid workload plus one off-grid size.
    const std::vector<std::vector<double>> probes = {{20, 8, 8},
                                                     {60, 24, 24}};
    for (const std::vector<double>& probe : probes) {
      const core::Prediction a = artifact.predict(probe, kFreqs);
      const core::Prediction b = reloaded.predict(probe, kFreqs);
      EXPECT_EQ(a.time_s, b.time_s) << "seed " << seed;
      EXPECT_EQ(a.energy_j, b.energy_j) << "seed " << seed;
      EXPECT_EQ(a.speedup, b.speedup) << "seed " << seed;
      EXPECT_EQ(a.norm_energy, b.norm_energy) << "seed " << seed;
    }
  }
}

TEST(HybridSerializationTest, FileRoundTripIsByteIdentical) {
  const ModelArtifact artifact = serve_test::synthetic_hybrid_artifact(3);
  const std::string path_a = testing::TempDir() + "dsem_hybrid_a.json";
  const std::string path_b = testing::TempDir() + "dsem_hybrid_b.json";
  artifact.save_file(path_a);
  ModelArtifact::load_file(path_a).save_file(path_b);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string bytes_a = slurp(path_a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(HybridSerializationTest, SchemaMismatchIsACleanError) {
  json::Value doc = serve_test::synthetic_hybrid_artifact(4).to_json();
  doc.set("schema", "dsem-model-v0");
  try {
    ModelArtifact::from_json(doc);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dsem-model-v1"),
              std::string::npos);
  }
}

TEST(HybridSerializationTest, TruncatedDocumentIsRejected) {
  const std::string full = serve_test::synthetic_hybrid_artifact(5)
                               .to_json()
                               .dump();
  for (const std::size_t cut : {full.size() / 4, full.size() / 2,
                                full.size() - 2}) {
    EXPECT_THROW(
        ModelArtifact::from_json(json::Value::parse(full.substr(0, cut))),
        contract_error)
        << "cut " << cut;
  }
}

TEST(HybridSerializationTest, BadInputWidthIsRejected) {
  for (const double width : {0.0, 1.0, -3.0, 6.5}) {
    json::Value doc = serve_test::synthetic_hybrid_artifact(6).to_json();
    doc.at("model").set("input_width", width);
    EXPECT_THROW(ModelArtifact::from_json(doc), contract_error)
        << "width " << width;
  }
}

TEST(HybridSerializationTest, QueryWidthIsCheckedAgainstInputWidth) {
  json::Value doc = serve_test::synthetic_hybrid_artifact(9).to_json();
  const double width = doc.at("model").at("input_width").as_number();
  doc.at("model").set("input_width", width + 1.0);
  const ModelArtifact widened = ModelArtifact::from_json(doc);
  EXPECT_THROW(widened.predict(std::vector<double>{20, 8, 8}, kFreqs),
               contract_error);
}

TEST(HybridSerializationTest, TreesSplittingPastInputWidthAreRejected) {
  // A two-column row: one fused feature and frequency. The forests split
  // on wider columns than that.
  json::Value doc = serve_test::synthetic_hybrid_artifact(10).to_json();
  doc.at("model").set("input_width", 2.0);
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(HybridSerializationTest, TamperedForestIsRejected) {
  json::Value doc = serve_test::synthetic_hybrid_artifact(7).to_json();
  // Turn the root into a leaf: every other node becomes unreachable.
  json::Value& tree0 = doc.at("model").at("time").at("trees").as_array()[0];
  json::Value::Array& root = tree0.at("nodes").as_array()[0].as_array();
  root[2] = json::Value(-1);
  root[3] = json::Value(-1);
  EXPECT_THROW(ModelArtifact::from_json(doc), contract_error);
}

TEST(HybridSerializationTest, UntrainedHybridRefusesToSerialize) {
  ModelArtifact artifact = serve_test::synthetic_hybrid_artifact(8);
  artifact.ds = std::make_shared<core::DomainSpecificModel>();
  EXPECT_THROW(artifact.to_json(), contract_error);
  EXPECT_THROW(artifact.ds->to_json(/*with_width=*/true), contract_error);
}

} // namespace
