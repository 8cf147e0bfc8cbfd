#include "obs/ledger.hpp"

#include <charconv>
#include <map>

#include "common/rng.hpp"

namespace dsem::obs {

namespace {

std::string hex16(std::uint64_t value) {
  char digits[16];
  char* end = std::to_chars(digits, digits + 16, value, 16).ptr;
  return std::string(static_cast<std::size_t>(digits + 16 - end), '0')
      .append(digits, end);
}

void write_record(json::Writer& w, const RequestRecord& r) {
  w.begin_object()
      .key("index").value(r.index)
      .key("id").value(r.id)
      .key("application").value(r.application)
      .key("model").value(r.model)
      .key("arrival_s").value(r.arrival_s)
      .key("queue_wait_s").value(r.queue_wait_s)
      .key("service_s").value(r.service_s)
      .key("completion_s").value(r.completion_s)
      .key("latency_s").value(r.latency_s)
      .key("cache_hit").value(r.cache_hit)
      .key("shed").value(r.shed)
      .key("batch").value(r.batch)
      .key("freq_mhz").value(r.freq_mhz)
      .key("predicted_time_s").value(r.predicted_time_s)
      .key("predicted_energy_j").value(r.predicted_energy_j)
      .key("max_slowdown").value(r.max_slowdown)
      .key("budget_infeasible").value(r.budget_infeasible)
      .key("cause").value(to_string(r.cause))
      .end_object();
}

void write_record(json::Writer& w, const JobRecord& j) {
  w.begin_object()
      .key("index").value(j.index)
      .key("id").value(j.id)
      .key("application").value(j.application)
      .key("model").value(j.model)
      .key("rank").value(j.rank)
      .key("freq_mhz").value(j.freq_mhz)
      .key("arrival_s").value(j.arrival_s)
      .key("start_s").value(j.start_s)
      .key("finish_s").value(j.finish_s)
      .key("deadline_s").value(j.deadline_s)
      .key("queue_wait_s").value(j.queue_wait_s)
      .key("predicted_time_s").value(j.predicted_time_s)
      .key("predicted_energy_j").value(j.predicted_energy_j)
      .key("true_time_s").value(j.true_time_s)
      .key("true_energy_j").value(j.true_energy_j)
      .key("time_residual").value(j.time_residual)
      .key("energy_residual").value(j.energy_residual)
      .key("slack_consumed").value(j.slack_consumed)
      .key("infeasible").value(j.infeasible)
      .key("rejected").value(j.rejected)
      .key("missed").value(j.missed)
      .key("cause").value(to_string(j.cause))
      .end_object();
}

template <typename Record>
void write_records(json::Writer& w, const std::vector<Record>& records) {
  w.begin_array();
  for (const Record& record : records) {
    write_record(w, record);
  }
  w.end_array();
}

/// Miss-cause tally with every taxonomy key present (stable field set for
/// goldens and dsem_inspect even when a cause never occurs).
template <typename Record>
void write_causes(json::Writer& w, const std::vector<Record>& records) {
  std::uint64_t counts[5] = {};
  for (const Record& record : records) {
    ++counts[static_cast<std::size_t>(record.cause)];
  }
  w.begin_object();
  for (std::size_t cause = 0; cause < 5; ++cause) {
    w.key(to_string(static_cast<MissCause>(cause))).value(counts[cause]);
  }
  w.end_object();
}

void write_energy_map(json::Writer& w,
                      const std::map<std::string, double>& by_app) {
  w.begin_object();
  for (const auto& [app, joules] : by_app) {
    w.key(app).value(joules);
  }
  w.end_object();
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
  json::Fnv1aSink kind_hash;
  kind_hash.append(kind);
  return std::string(kind) + "-" + hex16(derive_seed(kind_hash.digest(), index));
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

void Ledger::write(json::Writer& w, bool summary_only) const {
  const std::lock_guard<std::mutex> lock(mutex_);
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

  // FNV-1a of the compact record arrays: the summary-view goldens pin
  // every record byte-for-byte without storing them.
  json::Fnv1aSink hash;
  json::Writer compact(hash);
  write_records(compact, requests_);
  write_records(compact, jobs_);
  compact.flush();

  w.begin_object()
      .key("schema").value(kLedgerSchema)
      .key("program").value(config_.program);
  w.key("config").begin_object();
  w.key("drift").begin_object()
      .key("window").value(config_.drift.window)
      .key("quantile").value(config_.drift.quantile)
      .key("threshold").value(config_.drift.threshold)
      .key("min_samples").value(config_.drift.min_samples)
      .end_object();
  w.key("slo").begin_object()
      .key("latency_objective_s").value(config_.slo.latency_objective_s)
      .key("latency_budget").value(config_.slo.latency_budget)
      .key("miss_budget").value(config_.slo.miss_budget)
      .key("window_s").value(config_.slo.window_s)
      .end_object();
  w.end_object();

  w.key("summary").begin_object();
  w.key("requests").begin_object()
      .key("count").value(requests_.size())
      .key("served").value(served)
      .key("shed").value(shed)
      .key("cache_hits").value(cache_hits)
      .key("cache_misses").value(cache_misses)
      .key("predicted_energy_j").value(request_energy);
  write_energy_map(w.key("energy_by_application"), request_energy_by_app);
  write_causes(w.key("miss_causes"), requests_);
  w.key("slo").value(latency_slo.report().to_json()).end_object();
  w.key("jobs").begin_object()
      .key("count").value(jobs_.size())
      .key("completed").value(completed)
      .key("rejected").value(rejected)
      .key("infeasible").value(infeasible)
      .key("missed").value(missed)
      .key("predicted_energy_j").value(predicted_energy)
      .key("true_energy_j").value(true_energy);
  write_energy_map(w.key("energy_by_application"), job_energy_by_app);
  write_causes(w.key("miss_causes"), jobs_);
  w.key("slo").value(deadline_slo.report().to_json()).end_object();
  w.key("drift").value(drift.to_json());
  w.key("records_digest").value(hex16(hash.digest()));
  w.end_object();

  if (!summary_only) {
    write_records(w.key("requests"), requests_);
    write_records(w.key("jobs"), jobs_);
  }
  w.end_object();
}

json::Value Ledger::to_json(bool summary_only) const {
  std::string text;
  json::StringSink sink(text);
  json::Writer writer(sink);
  write(writer, summary_only);
  writer.flush();
  return json::Value::parse(text);
}

void Ledger::write_file(const std::string& path) const {
  json::write_file(path, [&](json::Writer& w) { write(w, false); });
}

} // namespace dsem::obs
