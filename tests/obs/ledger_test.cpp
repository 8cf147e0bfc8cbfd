// Attribution-ledger unit tests: stable id derivation, hand-computed
// request attribution through a real ServeLoop, shed-request
// reconciliation, and summary accounting over hand-built job records.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/ledger.hpp"
#include "serve/loop.hpp"
#include "../serve/serve_test_util.hpp"

namespace dsem::obs {
namespace {

constexpr double kHitCost = 1e-3;
constexpr double kMissCost = 1e-2;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

serve::TimedRequest make_request(double arrival_s) {
  serve::TimedRequest timed;
  timed.arrival_s = arrival_s;
  timed.request.application = "cronos";
  timed.request.features = {40.0, 10.0, 500.0};
  timed.request.max_slowdown = 0.05;
  return timed;
}

const serve::ModelRegistry& test_registry() {
  static serve::ModelRegistry* registry = [] {
    auto* r = new serve::ModelRegistry;
    r->put(serve_test::synthetic_artifact(0xBEEF, "cronos"));
    return r;
  }();
  return *registry;
}

serve::ServeConfig ledger_config(Ledger* ledger) {
  serve::ServeConfig config;
  config.batch_size = 1; // one request per dispatch: hand-computable
  config.admission_bound = 0;
  config.cache_capacity = 8;
  config.hit_cost_s = kHitCost;
  config.miss_cost_s = kMissCost;
  config.ledger = ledger;
  return config;
}

TEST(LedgerTest, RecordIdsAreStablePureFunctions) {
  // id = "<kind>-" + 16 hex digits of derive_seed(fnv1a64(kind), index):
  // the same trace position maps to the same id in every run.
  char expected[32];
  std::snprintf(expected, sizeof expected, "req-%016llx",
                static_cast<unsigned long long>(
                    derive_seed(fnv1a64("req"), 5)));
  EXPECT_EQ(derive_record_id("req", 5), expected);
  EXPECT_EQ(derive_record_id("req", 5), derive_record_id("req", 5));
  EXPECT_NE(derive_record_id("req", 5), derive_record_id("req", 6));
  EXPECT_NE(derive_record_id("req", 5), derive_record_id("job", 5));
}

TEST(LedgerTest, ServeAttributionHandComputed) {
  // Three identical requests at t = 0 through a batch-size-1 loop:
  // request 0 misses the cold cache (10 ms service), requests 1 and 2
  // hit (1 ms each) and spend the earlier services' time queued.
  Ledger ledger;
  serve::ServeLoop loop(test_registry(), ledger_config(&ledger));
  const std::vector<serve::TimedRequest> trace = {
      make_request(0.0), make_request(0.0), make_request(0.0)};
  const auto responses = loop.run(trace);

  ASSERT_EQ(ledger.requests().size(), 3u);
  ASSERT_TRUE(ledger.jobs().empty());
  const double t1 = kMissCost;      // request 0 completes
  const double t2 = t1 + kHitCost;  // request 1 completes
  const double t3 = t2 + kHitCost;  // request 2 completes

  const RequestRecord& first = ledger.requests()[0];
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.id, derive_record_id("req", 0));
  EXPECT_EQ(first.application, "cronos");
  EXPECT_EQ(first.model, "cronos/v100@synthetic-test");
  EXPECT_EQ(first.arrival_s, 0.0);
  EXPECT_EQ(first.queue_wait_s, 0.0);
  EXPECT_EQ(first.service_s, kMissCost);
  EXPECT_EQ(first.completion_s, t1);
  EXPECT_EQ(first.latency_s, t1);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.shed);
  EXPECT_EQ(first.batch, 1u);
  EXPECT_EQ(first.cause, MissCause::kNone);
  EXPECT_EQ(first.max_slowdown, 0.05);
  EXPECT_EQ(first.freq_mhz, responses[0].answer.freq_mhz);
  EXPECT_EQ(first.predicted_energy_j, responses[0].answer.predicted_energy_j);
  EXPECT_GT(first.predicted_energy_j, 0.0);

  const RequestRecord& second = ledger.requests()[1];
  EXPECT_EQ(second.queue_wait_s, t1);
  EXPECT_EQ(second.service_s, t2 - t1); // completion minus service start
  EXPECT_EQ(second.completion_s, t2);
  EXPECT_EQ(second.latency_s, t2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.batch, 2u);

  const RequestRecord& third = ledger.requests()[2];
  EXPECT_EQ(third.queue_wait_s, t2);
  EXPECT_EQ(third.completion_s, t3);
  EXPECT_EQ(third.batch, 3u);

  // Identical requests served from the cache carry the cached answer:
  // the attribution (queue/service split) differs, the advice does not.
  EXPECT_EQ(second.freq_mhz, first.freq_mhz);
  EXPECT_EQ(second.predicted_energy_j, first.predicted_energy_j);
}

TEST(LedgerTest, ShedRequestsAreRecordedAndTotalsReconcile) {
  // admission_bound 1 with three near-simultaneous arrivals: request 1
  // is shed-oldest when request 2 lands. The ledger must carry it with
  // cause "shed" — otherwise its totals cannot reconcile with
  // ServeStats.
  Ledger ledger;
  serve::ServeConfig config = ledger_config(&ledger);
  config.admission_bound = 1;
  serve::ServeLoop loop(test_registry(), config);
  const std::vector<serve::TimedRequest> trace = {
      make_request(0.0), make_request(1e-6), make_request(2e-6)};
  loop.run(trace);
  const serve::ServeStats& stats = loop.stats();

  ASSERT_EQ(stats.shed, 1u);
  ASSERT_EQ(ledger.requests().size(), 3u);
  const RequestRecord& dropped = ledger.requests()[1];
  EXPECT_EQ(dropped.index, 1u);
  EXPECT_TRUE(dropped.shed);
  EXPECT_EQ(dropped.cause, MissCause::kShed);
  EXPECT_EQ(dropped.model, "");
  EXPECT_EQ(dropped.batch, 0u);
  EXPECT_EQ(dropped.completion_s, 2e-6); // shed when request 2 arrived
  EXPECT_EQ(dropped.latency_s, 1e-6);
  EXPECT_EQ(dropped.queue_wait_s, dropped.latency_s); // all of it waiting
  EXPECT_EQ(dropped.service_s, 0.0);
  EXPECT_EQ(dropped.predicted_energy_j, 0.0);

  // Exact reconciliation, counts and energy: ledger vs ServeStats vs the
  // summary JSON.
  std::uint64_t served = 0, shed = 0;
  double energy = 0.0;
  for (const RequestRecord& record : ledger.requests()) {
    (record.shed ? shed : served) += 1;
    if (!record.shed) {
      energy += record.predicted_energy_j;
    }
  }
  EXPECT_EQ(served, stats.served);
  EXPECT_EQ(shed, stats.shed);
  EXPECT_EQ(served + shed, stats.requests);
  EXPECT_EQ(energy, stats.predicted_energy_j);

  const json::Value summary = ledger.to_json(true).at("summary");
  EXPECT_EQ(summary.at("requests").at("count").as_number(), 3.0);
  EXPECT_EQ(summary.at("requests").at("served").as_number(),
            static_cast<double>(stats.served));
  EXPECT_EQ(summary.at("requests").at("shed").as_number(), 1.0);
  EXPECT_EQ(summary.at("requests").at("miss_causes").at("shed").as_number(),
            1.0);
  EXPECT_EQ(summary.at("requests").at("predicted_energy_j").as_number(),
            stats.predicted_energy_j);
  EXPECT_EQ(summary.at("requests")
                .at("energy_by_application")
                .at("cronos")
                .as_number(),
            stats.energy_by_application.at("cronos"));
}

JobRecord completed_job(std::uint64_t index, double energy,
                        bool missed = false,
                        MissCause cause = MissCause::kNone) {
  JobRecord job;
  job.index = index;
  job.id = derive_record_id("job", index);
  job.application = "ligen";
  job.model = "ligen/v100@test";
  job.rank = 0;
  job.arrival_s = static_cast<double>(index);
  job.start_s = job.arrival_s;
  job.true_time_s = 1.0;
  job.true_energy_j = energy;
  job.predicted_time_s = 1.1;
  job.predicted_energy_j = energy * 0.9;
  job.time_residual = 0.1;
  job.energy_residual = 0.1;
  job.finish_s = job.start_s + job.true_time_s;
  job.deadline_s = job.arrival_s + 2.0;
  job.slack_consumed = 0.5;
  job.missed = missed;
  job.cause = cause;
  return job;
}

TEST(LedgerTest, JobSummaryAccountingOverHandBuiltRecords) {
  Ledger ledger;
  ledger.add(completed_job(0, 100.0));
  ledger.add(completed_job(1, 50.0, /*missed=*/true,
                           MissCause::kPlacement));
  JobRecord rejected;
  rejected.index = 2;
  rejected.id = derive_record_id("job", 2);
  rejected.application = "ligen";
  rejected.model = "ligen/v100@test";
  rejected.rejected = true;
  rejected.infeasible = true;
  rejected.missed = true;
  rejected.cause = MissCause::kInfeasible;
  ledger.add(rejected);

  const json::Value summary = ledger.to_json(true).at("summary");
  const json::Value& jobs = summary.at("jobs");
  EXPECT_EQ(jobs.at("count").as_number(), 3.0);
  EXPECT_EQ(jobs.at("completed").as_number(), 2.0);
  EXPECT_EQ(jobs.at("rejected").as_number(), 1.0);
  EXPECT_EQ(jobs.at("infeasible").as_number(), 1.0);
  EXPECT_EQ(jobs.at("missed").as_number(), 2.0); // late + rejected
  EXPECT_EQ(jobs.at("true_energy_j").as_number(), 150.0);
  EXPECT_EQ(jobs.at("energy_by_application").at("ligen").as_number(), 150.0);
  EXPECT_EQ(jobs.at("miss_causes").at("placement").as_number(), 1.0);
  EXPECT_EQ(jobs.at("miss_causes").at("infeasible").as_number(), 1.0);
  EXPECT_EQ(jobs.at("miss_causes").at("none").as_number(), 1.0);
  // Rejected jobs never executed: the drift fold sees only the two
  // completed records.
  EXPECT_EQ(summary.at("drift").as_array().size(), 1u);
  EXPECT_EQ(summary.at("drift").as_array()[0].at("samples").as_number(),
            2.0);
  // The deadline SLO sees every job; 2 of 3 violate.
  EXPECT_EQ(jobs.at("slo").at("events").as_number(), 3.0);
  EXPECT_EQ(jobs.at("slo").at("violations").as_number(), 2.0);
}

TEST(LedgerTest, SummaryDigestPinsEveryRecordByte) {
  Ledger a;
  Ledger b;
  a.add(completed_job(0, 100.0));
  b.add(completed_job(0, 100.0));
  const auto digest = [](const Ledger& ledger) {
    return ledger.to_json(true)
        .at("summary")
        .at("records_digest")
        .as_string();
  };
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_EQ(a.to_json(true).dump(2), b.to_json(true).dump(2));

  Ledger c;
  JobRecord tweaked = completed_job(0, 100.0);
  tweaked.true_energy_j += 1e-9; // any field change moves the digest
  c.add(tweaked);
  EXPECT_NE(digest(a), digest(c));

  // The summary view drops the record arrays; the full view keeps them.
  EXPECT_EQ(a.to_json(true).find("jobs"), nullptr);
  ASSERT_NE(a.to_json(false).find("jobs"), nullptr);
  EXPECT_EQ(a.to_json(false).at("jobs").as_array().size(), 1u);
}

} // namespace
} // namespace dsem::obs
