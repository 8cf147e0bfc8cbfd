// Golden ledger determinism (grouped suite, heavy tier): the attribution
// ledgers written by a 10^4-request serve run and a 10^4-job scheduler
// run are bit-identical JSON for thread pools of 1, 2, and 8 workers,
// their summaries match committed goldens byte for byte (the summary's
// records_digest extends that pin to every record), the streamed file
// export equals the pretty-printed document, their totals
// reconcile exactly with ServeStats / SchedStats, and every record obeys
// the miss-cause taxonomy.
//
// To regenerate the goldens after a conscious behavior change:
//   DSEM_WRITE_GOLDEN=1 ./dsem_obs_tests --gtest_filter=LedgerDeterminism.*
// then commit the rewritten tests/data/golden_ledger_*.json.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "obs/ledger.hpp"
#include "sched/scheduler.hpp"
#include "serve/loop.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelRegistry;
using serve::TimedJob;
using serve::TimedRequest;
using serve::TrafficConfig;

/// The bytes Ledger::write_file exports for `ledger`.
std::string exported_bytes(const obs::Ledger& ledger, const char* name) {
  const std::string path = testing::TempDir() + name;
  ledger.write_file(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  std::filesystem::remove(path);
  return content.str();
}

// Trained once, shared by every test in the grouped suite.
const ModelRegistry& shared_registry() {
  static ModelRegistry* registry = [] {
    auto* r = new ModelRegistry;
    r->put(serve_test::train_compact_artifact("cronos"));
    r->put(serve_test::train_compact_artifact("ligen"));
    return r;
  }();
  return *registry;
}

// Same traces as the ServeDeterminism / SchedDeterminism suites, so the
// ledger pins the exact runs those suites already guard.
const std::vector<TimedRequest>& shared_request_trace() {
  static const std::vector<TimedRequest> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 5000.0; // fast enough to force batching
    traffic.population = 64;
    return serve::generate_trace(traffic);
  }();
  return trace;
}

const std::vector<TimedJob>& shared_job_trace() {
  static const std::vector<TimedJob> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 4.0; // a moderately loaded 4-rank cluster
    traffic.population = 64;
    traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
    return serve::generate_job_trace(traffic);
  }();
  return trace;
}

struct ServeLedgerRun {
  std::vector<obs::RequestRecord> records;
  serve::ServeStats stats;
  std::string full_json;    ///< to_json(false): summary + record arrays
  std::string summary_json; ///< to_json(true): the committed golden view
  std::string file_bytes;   ///< what write_file put on disk
};

const ServeLedgerRun& serve_run(std::size_t threads) {
  static std::map<std::size_t, ServeLedgerRun>* cache =
      new std::map<std::size_t, ServeLedgerRun>;
  const auto found = cache->find(threads);
  if (found != cache->end()) {
    return found->second;
  }
  ScopedGlobalPool pool(threads);
  serve::ServeConfig config;
  config.batch_size = 32;
  config.admission_bound = 256;
  config.cache_capacity = 512;
  obs::Ledger ledger;
  config.ledger = &ledger;
  serve::ServeLoop loop(shared_registry(), config);
  loop.run(shared_request_trace());
  ServeLedgerRun run;
  run.records = ledger.requests();
  run.stats = loop.stats();
  run.full_json = ledger.to_json(false).dump(2);
  run.summary_json = ledger.to_json(true).dump(2);
  run.file_bytes = exported_bytes(ledger, "dsem_serve_ledger.json");
  return (*cache)[threads] = std::move(run);
}

struct SchedLedgerRun {
  std::vector<obs::JobRecord> records;
  sched::SchedStats stats;
  std::string full_json;
  std::string summary_json;
  std::string file_bytes;
};

const SchedLedgerRun& sched_run(std::size_t threads) {
  static std::map<std::size_t, SchedLedgerRun>* cache =
      new std::map<std::size_t, SchedLedgerRun>;
  const auto found = cache->find(threads);
  if (found != cache->end()) {
    return found->second;
  }
  ScopedGlobalPool pool(threads);
  celerity::ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  celerity::Cluster cluster(sim::v100(), cluster_config);
  sched::SchedConfig config;
  config.frequency = sched::FrequencyPolicy::kModel;
  config.margin = 6.0;
  obs::Ledger ledger;
  config.ledger = &ledger;
  sched::ClusterScheduler scheduler(cluster, shared_registry(), config);
  scheduler.run(shared_job_trace());
  SchedLedgerRun run;
  run.records = ledger.jobs();
  run.stats = scheduler.stats();
  run.full_json = ledger.to_json(false).dump(2);
  run.summary_json = ledger.to_json(true).dump(2);
  run.file_bytes = exported_bytes(ledger, "dsem_sched_ledger.json");
  return (*cache)[threads] = std::move(run);
}

std::string golden_path(const std::string& filename) {
  return std::string(DSEM_TEST_DATA_DIR) + "/" + filename;
}

void expect_matches_golden(const std::string& filename,
                           const std::string& summary_json) {
  const std::string path = golden_path(filename);
  if (std::getenv("DSEM_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden: " << path;
    out << summary_json << "\n";
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " (regenerate with DSEM_WRITE_GOLDEN=1 and commit it)";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), summary_json + "\n")
      << "ledger summary diverged from " << filename
      << "; if the change is intentional, regenerate with "
         "DSEM_WRITE_GOLDEN=1";
}

TEST(LedgerDeterminism, ServeLedgerBitIdenticalForPools1_2_8) {
  const ServeLedgerRun& serial = serve_run(1);
  const ServeLedgerRun& two = serve_run(2);
  const ServeLedgerRun& eight = serve_run(8);
  ASSERT_EQ(serial.records.size(), 10000u);
  // The full dump carries every per-request record: queue waits,
  // service times, batches, energies — all simulated-time quantities.
  EXPECT_EQ(serial.full_json, two.full_json);
  EXPECT_EQ(serial.full_json, eight.full_json);
  EXPECT_EQ(serial.records, two.records);
  EXPECT_EQ(serial.records, eight.records);
}

TEST(LedgerDeterminism, SchedLedgerBitIdenticalForPools1_2_8) {
  const SchedLedgerRun& serial = sched_run(1);
  const SchedLedgerRun& two = sched_run(2);
  const SchedLedgerRun& eight = sched_run(8);
  ASSERT_EQ(serial.records.size(), 10000u);
  EXPECT_EQ(serial.full_json, two.full_json);
  EXPECT_EQ(serial.full_json, eight.full_json);
  EXPECT_EQ(serial.records, two.records);
  EXPECT_EQ(serial.records, eight.records);
}

TEST(LedgerDeterminism, WriteFileIsThePrettyPrintedDocument) {
  // The streamed export and the parsed document must agree byte for byte.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(serve_run(threads).file_bytes,
              serve_run(threads).full_json + "\n")
        << threads;
    EXPECT_EQ(sched_run(threads).file_bytes,
              sched_run(threads).full_json + "\n")
        << threads;
  }
}

TEST(LedgerDeterminism, ServeSummaryMatchesCommittedGolden) {
  expect_matches_golden("golden_ledger_serve_v100.json",
                        serve_run(8).summary_json);
}

TEST(LedgerDeterminism, SchedSummaryMatchesCommittedGolden) {
  expect_matches_golden("golden_ledger_sched_v100.json",
                        sched_run(8).summary_json);
}

TEST(LedgerDeterminism, ServeLedgerReconcilesWithServeStats) {
  const ServeLedgerRun& run = serve_run(8);
  std::uint64_t served = 0, shed = 0, hits = 0, misses = 0;
  double energy = 0.0;
  std::map<std::string, double> by_app;
  for (const obs::RequestRecord& r : run.records) {
    if (r.shed) {
      ++shed;
      continue;
    }
    ++served;
    (r.cache_hit ? hits : misses) += 1;
    energy += r.predicted_energy_j;
    by_app[r.application] += r.predicted_energy_j;
  }
  EXPECT_EQ(served, run.stats.served);
  EXPECT_EQ(shed, run.stats.shed);
  EXPECT_EQ(served + shed, run.stats.requests);
  EXPECT_EQ(hits, run.stats.cache_hits);
  EXPECT_EQ(misses, run.stats.cache_misses);
  // Exact double equality: the ledger accumulates in the same order as
  // ServeStats, so the sums are bit-identical, not merely close.
  EXPECT_EQ(energy, run.stats.predicted_energy_j);
  EXPECT_EQ(by_app, run.stats.energy_by_application);
}

TEST(LedgerDeterminism, SchedLedgerReconcilesWithSchedStats) {
  const SchedLedgerRun& run = sched_run(8);
  std::uint64_t completed = 0, rejected = 0, missed = 0, infeasible = 0;
  double busy_energy = 0.0;
  for (const obs::JobRecord& j : run.records) {
    if (j.rejected) {
      ++rejected;
    } else {
      ++completed;
      busy_energy += j.true_energy_j;
    }
    if (j.missed) {
      ++missed;
    }
    if (j.infeasible) {
      ++infeasible;
    }
  }
  EXPECT_EQ(completed, run.stats.completed);
  EXPECT_EQ(rejected, run.stats.rejected);
  EXPECT_EQ(completed + rejected, run.stats.jobs);
  EXPECT_EQ(missed, run.stats.misses);
  EXPECT_EQ(infeasible, run.stats.infeasible);
  EXPECT_EQ(busy_energy, run.stats.busy_energy_j);
}

TEST(LedgerDeterminism, RecordsObeyTheMissCauseTaxonomy) {
  for (const obs::RequestRecord& r : serve_run(8).records) {
    // Requests: shed <=> cause "shed"; served requests carry no cause.
    EXPECT_EQ(r.shed, r.cause == obs::MissCause::kShed) << r.index;
    if (r.shed) {
      EXPECT_EQ(r.batch, 0u) << r.index;
      EXPECT_EQ(r.model, "") << r.index;
      EXPECT_EQ(r.service_s, 0.0) << r.index;
    } else {
      EXPECT_GE(r.batch, 1u) << r.index;
      // latency = completion - arrival and queue_wait + service differ
      // only by one rounding step, so near — not necessarily bit — equal.
      EXPECT_DOUBLE_EQ(r.latency_s, r.queue_wait_s + r.service_s) << r.index;
    }
    EXPECT_EQ(r.id, obs::derive_record_id("req", r.index)) << r.index;
  }
  for (const obs::JobRecord& j : sched_run(8).records) {
    // Jobs: missed <=> an attributed cause; rejection implies a miss.
    EXPECT_EQ(j.missed, j.cause != obs::MissCause::kNone) << j.index;
    if (j.rejected) {
      EXPECT_TRUE(j.missed) << j.index;
      EXPECT_EQ(j.rank, -1) << j.index;
    } else {
      EXPECT_EQ(j.finish_s, j.start_s + j.true_time_s) << j.index;
      EXPECT_EQ(j.missed, j.finish_s > j.deadline_s) << j.index;
    }
    EXPECT_EQ(j.id, obs::derive_record_id("job", j.index)) << j.index;
  }
}

} // namespace
