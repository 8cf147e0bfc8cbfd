// Ledger export tests: the full pretty-printed "dsem-ledger-v1" bytes of
// a hand-built ledger are pinned by a committed golden (the determinism
// goldens pin only the summary view and its digest), write_file equals
// the pretty-printed to_json(false), records_digest is the FNV-1a of the
// compact record arrays, and a failed export leaves the previous file in
// place.
//
// To regenerate the golden after a conscious format change:
//   DSEM_WRITE_GOLDEN=1 ./dsem_obs_tests --gtest_filter=LedgerExport.*
// then commit the rewritten tests/data/golden_ledger_full_v1.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/ledger.hpp"

namespace dsem::obs {
namespace {

constexpr double kTwo53 = 9007199254740992.0; // 2^53

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

RequestRecord request(std::uint64_t index, const char* application) {
  RequestRecord r;
  r.index = index;
  r.id = derive_record_id("req", index);
  r.application = application;
  r.model = std::string(application) + "/v100@golden";
  r.arrival_s = 0.1 * static_cast<double>(index);
  r.queue_wait_s = 2.5e-4;
  r.service_s = 2e-4;
  r.completion_s = r.arrival_s + r.queue_wait_s + r.service_s;
  r.latency_s = r.completion_s - r.arrival_s;
  r.batch = index + 1;
  r.freq_mhz = 1312.5;
  r.predicted_time_s = 0.37;
  r.predicted_energy_j = 41.0 / 3.0;
  r.max_slowdown = 0.05;
  return r;
}

JobRecord job(std::uint64_t index, const char* application) {
  JobRecord j;
  j.index = index;
  j.id = derive_record_id("job", index);
  j.application = application;
  j.model = std::string(application) + "/v100@golden";
  j.rank = static_cast<int>(index % 4);
  j.freq_mhz = 1245.0;
  j.arrival_s = 1.5 * static_cast<double>(index);
  j.start_s = j.arrival_s + 0.25;
  j.true_time_s = 2.0 / 3.0;
  j.finish_s = j.start_s + j.true_time_s;
  j.deadline_s = j.arrival_s + 2.0;
  j.queue_wait_s = j.start_s - j.arrival_s;
  j.predicted_time_s = 0.7;
  j.true_energy_j = 180.25;
  j.predicted_energy_j = 171.0;
  j.time_residual = 0.05;
  j.energy_residual = 0.0513;
  j.slack_consumed = (j.finish_s - j.arrival_s) / (j.deadline_s - j.arrival_s);
  return j;
}

/// Every record shape both streams produce (served miss and hit, shed,
/// budget-infeasible; met, late by placement, late by model error,
/// infeasible fallback, rejected, baseline) plus a program string that
/// needs escaping and the number edge cases: subnormals, -0.0, 2^53.
std::unique_ptr<Ledger> golden_ledger() {
  LedgerConfig config;
  config.program = "golden \"ledger\"\tv1\\export\n\x01";
  config.drift.window = 4;
  config.drift.min_samples = 2;
  config.drift.threshold = 0.04;
  auto owned = std::make_unique<Ledger>(config);
  Ledger& ledger = *owned;

  RequestRecord miss = request(0, "cronos");
  miss.service_s = 2e-4;
  miss.queue_wait_s = -0.0;
  miss.predicted_time_s = std::numeric_limits<double>::denorm_min();
  ledger.add(miss);

  RequestRecord hit = request(1, "ligen");
  hit.cache_hit = true;
  hit.service_s = 2e-6;
  hit.predicted_energy_j = std::numeric_limits<double>::min() / 3.0;
  ledger.add(hit);

  RequestRecord shed = request(2, "cronos");
  shed.model = "";
  shed.shed = true;
  shed.cause = MissCause::kShed;
  shed.service_s = 0.0;
  shed.batch = 0;
  shed.freq_mhz = 0.0;
  shed.predicted_time_s = 0.0;
  shed.predicted_energy_j = 0.0;
  ledger.add(shed);

  RequestRecord tight = request(3, "ligen");
  tight.budget_infeasible = true;
  tight.max_slowdown = 0.0;
  tight.arrival_s = kTwo53;
  tight.completion_s = kTwo53 + 2.0;
  tight.latency_s = 2.0;
  tight.batch = static_cast<std::uint64_t>(kTwo53) - 1;
  tight.predicted_energy_j = 1e300;
  ledger.add(tight);

  ledger.add(job(0, "ligen"));

  JobRecord placement = job(1, "cronos");
  placement.queue_wait_s = 1.75;
  placement.start_s = placement.arrival_s + placement.queue_wait_s;
  placement.finish_s = placement.start_s + placement.true_time_s;
  placement.slack_consumed = 1.2083333333333333;
  placement.missed = true;
  placement.cause = MissCause::kPlacement;
  ledger.add(placement);

  JobRecord model_error = job(2, "ligen");
  model_error.true_time_s = 2.5;
  model_error.finish_s = model_error.start_s + model_error.true_time_s;
  model_error.time_residual = 0.72;
  model_error.energy_residual = 0.6;
  model_error.missed = true;
  model_error.cause = MissCause::kModelError;
  ledger.add(model_error);

  JobRecord fallback = job(3, "cronos");
  fallback.infeasible = true;
  fallback.freq_mhz = 1530.0;
  fallback.energy_residual = -0.0;
  ledger.add(fallback);

  JobRecord rejected = job(4, "ligen");
  rejected.rank = -1;
  rejected.freq_mhz = 0.0;
  rejected.start_s = rejected.finish_s = 0.0;
  rejected.queue_wait_s = 0.0;
  rejected.predicted_time_s = rejected.predicted_energy_j = 0.0;
  rejected.true_time_s = rejected.true_energy_j = 0.0;
  rejected.time_residual = rejected.energy_residual = 0.0;
  rejected.slack_consumed = 0.0;
  rejected.infeasible = rejected.rejected = rejected.missed = true;
  rejected.cause = MissCause::kInfeasible;
  ledger.add(rejected);

  JobRecord baseline = job(5, "cronos");
  baseline.model = "";
  baseline.predicted_time_s = baseline.predicted_energy_j = 0.0;
  baseline.time_residual = baseline.energy_residual = 0.0;
  baseline.index = static_cast<std::uint64_t>(kTwo53);
  ledger.add(baseline);
  return owned;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(LedgerExport, WriteFileMatchesCommittedFullGolden) {
  const std::string golden =
      std::string(DSEM_TEST_DATA_DIR) + "/golden_ledger_full_v1.json";
  const auto ledger = golden_ledger();
  if (std::getenv("DSEM_WRITE_GOLDEN") != nullptr) {
    ledger->write_file(golden);
    GTEST_SKIP() << "golden regenerated: " << golden;
  }
  const std::string path = temp_path("dsem_ledger_full.json");
  ledger->write_file(path);
  const std::string expected = read_file(golden);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << golden
      << " (regenerate with DSEM_WRITE_GOLDEN=1 and commit it)";
  EXPECT_EQ(read_file(path), expected)
      << "full ledger export diverged from golden_ledger_full_v1.json";
  std::filesystem::remove(path);
}

TEST(LedgerExport, WriteFileEqualsPrettyDocument) {
  const auto ledger = golden_ledger();
  const std::string path = temp_path("dsem_ledger_pretty.json");
  ledger->write_file(path);
  EXPECT_EQ(read_file(path), ledger->to_json(false).dump(2) + "\n");
  std::filesystem::remove(path);
}

TEST(LedgerExport, SummaryViewIsTheFullDocumentWithoutRecords) {
  const auto ledger = golden_ledger();
  json::Value full = ledger->to_json(false);
  ASSERT_EQ(full.at("requests").as_array().size(), 4u);
  ASSERT_EQ(full.at("jobs").as_array().size(), 6u);
  json::Value::Object& fields = full.as_object();
  fields.resize(fields.size() - 2); // drop the record arrays
  EXPECT_EQ(full, ledger->to_json(true));
}

TEST(LedgerExport, RecordsDigestIsFnvOfCompactRecordArrays) {
  const auto ledger = golden_ledger();
  const json::Value full = ledger->to_json(false);
  const std::uint64_t digest =
      fnv1a64(full.at("jobs").dump(), fnv1a64(full.at("requests").dump()));
  char expected[17];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(full.at("summary").at("records_digest").as_string(), expected);
}

TEST(LedgerExport, FailedExportLeavesPreviousFileIntact) {
  // A non-finite number is found only while serializing. The export must
  // raise without touching the previous file or leaving a temp behind.
  const std::string path = temp_path("dsem_ledger_atomic.json");
  const std::string previous = "{\"previous\": \"export\"}\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << previous;
  }
  const auto ledger = golden_ledger();
  RequestRecord bad = request(4, "cronos");
  bad.predicted_energy_j = std::numeric_limits<double>::quiet_NaN();
  ledger->add(bad);
  EXPECT_THROW(ledger->write_file(path), contract_error);
  EXPECT_EQ(read_file(path), previous);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

} // namespace
} // namespace dsem::obs
