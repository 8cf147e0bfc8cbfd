#include "obs/ledger.hpp"

#include <cstdio>
#include <map>

#include "common/rng.hpp"

namespace dsem::obs {

namespace {

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

json::Value to_json(const RequestRecord& r) {
  auto out = json::Value::object();
  out.set("index", r.index);
  out.set("id", r.id);
  out.set("application", r.application);
  out.set("model", r.model);
  out.set("arrival_s", r.arrival_s);
  out.set("queue_wait_s", r.queue_wait_s);
  out.set("service_s", r.service_s);
  out.set("completion_s", r.completion_s);
  out.set("latency_s", r.latency_s);
  out.set("cache_hit", r.cache_hit);
  out.set("shed", r.shed);
  out.set("batch", r.batch);
  out.set("freq_mhz", r.freq_mhz);
  out.set("predicted_time_s", r.predicted_time_s);
  out.set("predicted_energy_j", r.predicted_energy_j);
  out.set("max_slowdown", r.max_slowdown);
  out.set("budget_infeasible", r.budget_infeasible);
  out.set("cause", to_string(r.cause));
  return out;
}

json::Value to_json(const JobRecord& j) {
  auto out = json::Value::object();
  out.set("index", j.index);
  out.set("id", j.id);
  out.set("application", j.application);
  out.set("model", j.model);
  out.set("rank", j.rank);
  out.set("freq_mhz", j.freq_mhz);
  out.set("arrival_s", j.arrival_s);
  out.set("start_s", j.start_s);
  out.set("finish_s", j.finish_s);
  out.set("deadline_s", j.deadline_s);
  out.set("queue_wait_s", j.queue_wait_s);
  out.set("predicted_time_s", j.predicted_time_s);
  out.set("predicted_energy_j", j.predicted_energy_j);
  out.set("true_time_s", j.true_time_s);
  out.set("true_energy_j", j.true_energy_j);
  out.set("time_residual", j.time_residual);
  out.set("energy_residual", j.energy_residual);
  out.set("slack_consumed", j.slack_consumed);
  out.set("infeasible", j.infeasible);
  out.set("rejected", j.rejected);
  out.set("missed", j.missed);
  out.set("cause", to_string(j.cause));
  return out;
}

/// Miss-cause tally with every taxonomy key present (stable field set for
/// goldens and dsem_inspect even when a cause never occurs).
template <typename Record>
json::Value tally_causes(const std::vector<Record>& records) {
  std::uint64_t counts[5] = {};
  for (const Record& record : records) {
    ++counts[static_cast<std::size_t>(record.cause)];
  }
  auto out = json::Value::object();
  out.set("none", counts[0]);
  out.set("shed", counts[1]);
  out.set("infeasible", counts[2]);
  out.set("model_error", counts[3]);
  out.set("placement", counts[4]);
  return out;
}

json::Value energy_map_json(const std::map<std::string, double>& by_app) {
  auto out = json::Value::object();
  for (const auto& [app, joules] : by_app) {
    out.set(app, joules);
  }
  return out;
}

} // namespace

const char* to_string(MissCause cause) noexcept {
  switch (cause) {
  case MissCause::kNone:
    return "none";
  case MissCause::kShed:
    return "shed";
  case MissCause::kInfeasible:
    return "infeasible";
  case MissCause::kModelError:
    return "model_error";
  case MissCause::kPlacement:
    return "placement";
  }
  return "unknown";
}

std::string derive_record_id(const char* kind, std::uint64_t index) {
  return std::string(kind) + "-" + hex16(derive_seed(fnv1a64(kind), index));
}

Ledger::Ledger(LedgerConfig config) : config_(std::move(config)) {}

void Ledger::add(RequestRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  requests_.push_back(std::move(record));
}

void Ledger::add(JobRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_.push_back(std::move(record));
}

void Ledger::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  requests_.clear();
  jobs_.clear();
}

json::Value Ledger::to_json(bool summary_only) const {
  const std::lock_guard<std::mutex> lock(mutex_);

  auto doc = json::Value::object();
  doc.set("schema", kLedgerSchema);
  doc.set("program", config_.program);

  auto config = json::Value::object();
  auto drift_cfg = json::Value::object();
  drift_cfg.set("window", config_.drift.window);
  drift_cfg.set("quantile", config_.drift.quantile);
  drift_cfg.set("threshold", config_.drift.threshold);
  drift_cfg.set("min_samples", config_.drift.min_samples);
  config.set("drift", std::move(drift_cfg));
  auto slo_cfg = json::Value::object();
  slo_cfg.set("latency_objective_s", config_.slo.latency_objective_s);
  slo_cfg.set("latency_budget", config_.slo.latency_budget);
  slo_cfg.set("miss_budget", config_.slo.miss_budget);
  slo_cfg.set("window_s", config_.slo.window_s);
  config.set("slo", std::move(slo_cfg));
  doc.set("config", std::move(config));

  // Request-stream summary: everything accumulates in record-append
  // order so the energy sums reconcile bit-exactly with ServeStats.
  std::uint64_t served = 0, shed = 0, cache_hits = 0, cache_misses = 0;
  double request_energy = 0.0;
  std::map<std::string, double> request_energy_by_app;
  SloTracker latency_slo(config_.slo.latency_budget, config_.slo.window_s);
  for (const RequestRecord& r : requests_) {
    if (r.shed) {
      ++shed;
    } else {
      ++served;
      if (r.cache_hit) {
        ++cache_hits;
      } else {
        ++cache_misses;
      }
      request_energy += r.predicted_energy_j;
      request_energy_by_app[r.application] += r.predicted_energy_j;
    }
    latency_slo.add(r.completion_s,
                    r.shed || r.latency_s > config_.slo.latency_objective_s);
  }

  // Job-stream summary (same record-order discipline vs SchedStats).
  std::uint64_t completed = 0, rejected = 0, infeasible = 0, missed = 0;
  double predicted_energy = 0.0, true_energy = 0.0;
  std::map<std::string, double> job_energy_by_app;
  SloTracker deadline_slo(config_.slo.miss_budget, config_.slo.window_s);
  DriftMonitor drift(config_.drift);
  for (const JobRecord& j : jobs_) {
    if (j.missed) {
      ++missed; // rejected jobs count too (SchedStats::misses semantics)
    }
    if (j.rejected) {
      ++rejected;
    } else {
      ++completed;
      predicted_energy += j.predicted_energy_j;
      true_energy += j.true_energy_j;
      job_energy_by_app[j.application] += j.true_energy_j;
      if (!j.model.empty()) {
        drift.observe(j.model, j.time_residual, j.energy_residual);
      }
    }
    if (j.infeasible) {
      ++infeasible;
    }
    deadline_slo.add(j.rejected ? j.arrival_s : j.finish_s,
                     j.rejected || j.missed);
  }

  auto summary = json::Value::object();
  auto requests = json::Value::object();
  requests.set("count", requests_.size());
  requests.set("served", served);
  requests.set("shed", shed);
  requests.set("cache_hits", cache_hits);
  requests.set("cache_misses", cache_misses);
  requests.set("predicted_energy_j", request_energy);
  requests.set("energy_by_application", energy_map_json(request_energy_by_app));
  requests.set("miss_causes", tally_causes(requests_));
  requests.set("slo", latency_slo.report().to_json());
  summary.set("requests", std::move(requests));

  auto jobs = json::Value::object();
  jobs.set("count", jobs_.size());
  jobs.set("completed", completed);
  jobs.set("rejected", rejected);
  jobs.set("infeasible", infeasible);
  jobs.set("missed", missed);
  jobs.set("predicted_energy_j", predicted_energy);
  jobs.set("true_energy_j", true_energy);
  jobs.set("energy_by_application", energy_map_json(job_energy_by_app));
  jobs.set("miss_causes", tally_causes(jobs_));
  jobs.set("slo", deadline_slo.report().to_json());
  summary.set("jobs", std::move(jobs));

  summary.set("drift", drift.to_json());

  // Digest of the full record arrays: the committed summary-view goldens
  // pin every record byte-for-byte without storing them.
  auto request_array = json::Value::array();
  for (const RequestRecord& r : requests_) {
    request_array.push_back(obs::to_json(r));
  }
  auto job_array = json::Value::array();
  for (const JobRecord& j : jobs_) {
    job_array.push_back(obs::to_json(j));
  }
  summary.set("records_digest",
              hex16(fnv1a64(job_array.dump(),
                            fnv1a64(request_array.dump()))));
  doc.set("summary", std::move(summary));

  if (!summary_only) {
    doc.set("requests", std::move(request_array));
    doc.set("jobs", std::move(job_array));
  }
  return doc;
}

void Ledger::write_file(const std::string& path) const {
  json::write_file(path, to_json(false));
}

Ledger& Ledger::global() {
  static Ledger* ledger = new Ledger;
  return *ledger;
}

namespace detail {

std::atomic<bool> g_enabled{false};

} // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

} // namespace dsem::obs
