// Property tests for the dsem-model-v1 artifact serialization: byte-
// stable round trips across many seeds, bit-identical predictions after
// a round trip, and clean contract_error rejection of malformed input.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
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

// Interior-node means are never read by prediction, so a layout that kept
// only what the walk needs would lose them silently. They must come back
// from a load bit for bit, and the fixtures must have some that are not 0.
void expect_interior_means_survive(const ModelArtifact& saved,
                                   const ModelArtifact& loaded) {
  std::size_t nonzero = 0;
  for (const bool time : {true, false}) {
    const auto& a = dynamic_cast<const ml::RandomForestRegressor&>(
        time ? saved.ds->time_model() : saved.ds->energy_model());
    const auto& b = dynamic_cast<const ml::RandomForestRegressor&>(
        time ? loaded.ds->time_model() : loaded.ds->energy_model());
    ASSERT_EQ(a.tree_count(), b.tree_count());
    for (std::size_t t = 0; t < a.tree_count(); ++t) {
      const std::span<const double> ma = a.tree(t).interior_means();
      const std::span<const double> mb = b.tree(t).interior_means();
      ASSERT_EQ(ma.size(), mb.size());
      for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ma[i]),
                  std::bit_cast<std::uint64_t>(mb[i]))
            << "tree " << t << " mean " << i;
        nonzero += ma[i] != 0.0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(nonzero, 0u);
}

TEST(SerializationTest, RoundTripIsByteIdenticalAcrossFiftySeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ModelArtifact artifact = synthetic_artifact(seed);
    const std::string first = artifact.to_json().dump(2);
    const ModelArtifact reloaded =
        ModelArtifact::from_json(json::Value::parse(first));
    const std::string second = reloaded.to_json().dump(2);
    EXPECT_EQ(first, second) << "seed " << seed;
    expect_interior_means_survive(artifact, reloaded);
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
  // "general-purpose" is not a kind either: the GP baseline is never served.
  for (const char* kind : {"bayesian", "general-purpose"}) {
    json::Value doc = synthetic_artifact(6).to_json();
    doc.set("kind", kind);
    EXPECT_THROW(ModelArtifact::from_json(doc), contract_error) << kind;
  }
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

TEST(SerializationTest, NonInt32TreeFieldsAreRejected) {
  // A static_cast of 3e9 or 1e999 (inf) to int32 is undefined behaviour;
  // the load must raise before any cast.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const json::Value clean = synthetic_artifact(12).to_json();
  for (const double bad : {3e9, -3e9, 2147483648.0, kInf, -kInf,
                           std::numeric_limits<double>::quiet_NaN(), 2.5}) {
    for (const std::size_t cell : {0u, 2u, 3u}) {
      json::Value doc = clean;
      json::Value& tree0 =
          doc.at("model").at("time").at("trees").as_array()[0];
      tree0.at("nodes").as_array()[0].as_array()[cell] = json::Value(bad);
      EXPECT_THROW(ModelArtifact::from_json(doc), contract_error)
          << "cell " << cell << " value " << bad;
    }
    json::Value doc = clean;
    doc.at("model").at("time").at("params").set("n_estimators", bad);
    EXPECT_THROW(ModelArtifact::from_json(doc), contract_error)
        << "n_estimators " << bad;
  }
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
  // A schedule is positive and strictly ascending: a negated one would
  // recommend a negative clock, a reversed one a different clock. Both a
  // load and a save refuse it.
  const std::vector<std::vector<double>> bad = {
      {-1400, -1200, -1000, -800, -600}, {0, 800, 1000, 1200, 1400},
      {1400, 1200, 1000, 800, 600},      {600, 800, 800, 1200, 1400},
      {600, 1000, 800, 1200, 1400}};
  for (const std::vector<double>& freqs : bad) {
    auto schedule = json::Value::array();
    for (const double f : freqs) {
      schedule.push_back(f);
    }
    doc.set("freqs_mhz", schedule);
    EXPECT_THROW(ModelArtifact::from_json(doc), contract_error)
        << freqs.front() << ", " << freqs[1];
    ModelArtifact artifact = synthetic_artifact(8);
    artifact.freqs_mhz = freqs;
    EXPECT_THROW(artifact.to_json(), contract_error)
        << freqs.front() << ", " << freqs[1];
  }
}

// Reorders every object in `doc`, recursively: reversed, or sorted by key
// as a writer with sorted keys emits it. Reversed puts "model" before
// "kind" and the trees before their params and type.
void reorder_fields(json::Value& doc, bool sorted) {
  if (doc.is_array()) {
    for (json::Value& element : doc.as_array()) {
      reorder_fields(element, sorted);
    }
  }
  if (!doc.is_object()) {
    return;
  }
  json::Value::Object& fields = doc.as_object();
  for (auto& field : fields) {
    reorder_fields(field.second, sorted);
  }
  if (sorted) {
    std::sort(fields.begin(), fields.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  } else {
    std::reverse(fields.begin(), fields.end());
  }
}

TEST(SerializationTest, FieldsLoadInAnyOrder) {
  for (const ModelArtifact& artifact :
       {synthetic_artifact(14), serve_test::synthetic_hybrid_artifact(14)}) {
    const std::string canonical = artifact.to_json().dump(2);
    for (const bool sorted : {false, true}) {
      json::Value doc = artifact.to_json();
      reorder_fields(doc, sorted);
      ASSERT_NE(doc.dump(2), canonical);
      EXPECT_EQ(ModelArtifact::from_json(doc).to_json().dump(2), canonical)
          << (sorted ? "sorted" : "reversed");
    }
  }
}

TEST(SerializationTest, UnknownKeysAreSkipped) {
  json::Value doc = synthetic_artifact(15).to_json();
  const std::string canonical = doc.dump(2);
  auto extra = json::Value::object();
  auto list = json::Value::array();
  list.push_back(1);
  list.push_back(json::Value::object());
  list.push_back("]}");
  extra.set("nested", std::move(list));
  doc.set("comment", extra);
  doc.at("model").set("note", "trained twice");
  doc.at("model").at("time").set("extra", extra);
  doc.at("model").at("time").at("params").set("criterion", "squared_error");
  doc.at("model").at("time").at("trees").as_array()[0].set("depth", 6);
  EXPECT_EQ(ModelArtifact::from_json(doc).to_json().dump(2), canonical);
}

TEST(SerializationTest, RepeatedKeyIsRejected) {
  // A document that names one field twice is ambiguous; the first copy
  // used to win silently. Each object repeats its first field here.
  const json::Value clean = synthetic_artifact(16).to_json();
  const std::vector<std::function<json::Value&(json::Value&)>> objects = {
      [](json::Value& doc) -> json::Value& { return doc; },
      [](json::Value& doc) -> json::Value& { return doc.at("model"); },
      [](json::Value& doc) -> json::Value& {
        return doc.at("model").at("energy");
      },
      [](json::Value& doc) -> json::Value& {
        return doc.at("model").at("time").at("params");
      },
      [](json::Value& doc) -> json::Value& {
        return doc.at("model").at("time").at("trees").as_array()[3];
      },
  };
  for (std::size_t i = 0; i < objects.size(); ++i) {
    json::Value doc = clean;
    json::Value::Object& fields = objects[i](doc).as_object();
    fields.push_back(fields.front());
    try {
      ModelArtifact::from_json(doc);
      ADD_FAILURE() << "object " << i << ": expected contract_error";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("repeated key \"" +
                                           fields.front().first + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializationTest, UntrainedModelRefusesToSerialize) {
  const core::DomainSpecificModel untrained;
  std::string text;
  json::StringSink sink(text);
  json::Writer writer(sink);
  EXPECT_THROW(untrained.write(writer), contract_error);
  writer.flush();
  EXPECT_TRUE(text.empty()) << text;
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
    expect_interior_means_survive(artifact, reloaded);
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
  std::string text;
  json::StringSink sink(text);
  json::Writer writer(sink);
  EXPECT_THROW(artifact.ds->write(writer, /*with_width=*/true),
               contract_error);
  writer.flush();
  EXPECT_TRUE(text.empty()) << text;
}

} // namespace
