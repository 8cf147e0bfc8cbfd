// The traced run's replay: the last round's per-request and per-job
// pieces, plus a standard probe set drawn from the seed, re-executed one
// public call at a time under spans that carry the request or job id.
// Every piece is checked against what the round (or the advisor) produced,
// and the per-layer metrics are medians over the pieces' spans.
#include <algorithm>
#include <filesystem>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "serve/advisor.hpp"
#include "serve/loop.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "sim/profile_cache.hpp"
#include "synergy/queue.hpp"

namespace dsem_bench {

using namespace dsem;

namespace {

constexpr std::uint64_t kProbeStream = 5;

/// Requests of the round replayed at most (in trace order): enough for
/// stable medians without a span per request of a long hot trace.
constexpr std::size_t kMaxReplayRequests = 20000;

/// Records in the stand-in ledger of workloads that keep none.
constexpr std::size_t kStandInLedgerRecords = 4096;

// Layers the replay charges its spans to.
constexpr const char* kKey = "serve.key";
constexpr const char* kCache = "serve.cache";
constexpr const char* kRegistry = "serve.registry";
constexpr const char* kAdvise = "serve.advise";
constexpr const char* kPick = "serve.pick";
constexpr const char* kPredict = "core.predict";
constexpr const char* kFit = "core.fit";
constexpr const char* kSweep = "core.sweep";
constexpr const char* kSim = "sim";
constexpr const char* kSchedPick = "sched.pick";
constexpr const char* kLedger = "obs.ledger";
constexpr const char* kSerialize = "ml.serialize";

/// Runs `fn` under a span and returns the span's seconds.
template <typename Fn>
double timed(SpanRecorder& spans, const char* name, const char* layer,
             std::uint64_t id, Fn&& fn) {
  const int index = spans.open(name, layer, id);
  fn();
  spans.close(index);
  return spans.spans()[static_cast<std::size_t>(index)].seconds();
}

/// Median seconds of the spans called `name` recorded from index `from`.
double median_seconds(const SpanRecorder& spans, std::size_t from,
                      std::string_view name) {
  std::vector<double> xs;
  for (std::size_t i = from; i < spans.spans().size(); ++i) {
    if (name == spans.spans()[i].name) {
      xs.push_back(spans.spans()[i].seconds());
    }
  }
  return xs.empty() ? 0.0 : stats::median(xs);
}

serve::AdviseAnswer answer_at(const core::Prediction& pred, std::size_t i,
                              bool infeasible) {
  serve::AdviseAnswer answer;
  answer.freq_mhz = pred.freqs_mhz[i];
  answer.predicted_time_s = pred.time_s[i];
  answer.predicted_energy_j = pred.energy_j[i];
  answer.predicted_speedup = pred.speedup[i];
  answer.predicted_norm_energy = pred.norm_energy[i];
  answer.budget_infeasible = infeasible;
  return answer;
}

/// The scheduler's candidate clocks: every `stride`-th artifact
/// frequency, the maximum always included.
std::vector<double> strided(const std::vector<double>& freqs,
                            std::size_t stride) {
  std::vector<double> out;
  for (std::size_t i = 0; i < freqs.size(); i += stride) {
    out.push_back(freqs[i]);
  }
  if (out.back() != freqs.back()) {
    out.push_back(freqs.back());
  }
  return out;
}

/// Request records as the serving loop writes them, for workloads whose
/// rounds keep no ledger.
void fill_stand_in_ledger(obs::Ledger& ledger, const ReplayInputs& in) {
  for (std::size_t k = 0; k < kStandInLedgerRecords; ++k) {
    const std::size_t i = k % in.requests.size();
    const serve::AdviseAnswer& answer = in.answers[i];
    obs::RequestRecord record;
    record.index = k;
    record.id = obs::derive_record_id("req", k);
    record.application = in.requests[i].application;
    record.model = record.application + "/v100@dsem_bench";
    record.arrival_s = static_cast<double>(k) * 5e-4;
    record.service_s = in.computed[i] ? 2e-4 : 2e-6;
    record.completion_s = record.arrival_s + record.service_s;
    record.latency_s = record.service_s;
    record.cache_hit = !in.computed[i];
    record.batch = k + 1;
    record.freq_mhz = answer.freq_mhz;
    record.predicted_time_s = answer.predicted_time_s;
    record.predicted_energy_j = answer.predicted_energy_j;
    record.max_slowdown = in.requests[i].max_slowdown;
    record.budget_infeasible = answer.budget_infeasible;
    ledger.add(std::move(record));
  }
}

} // namespace

Values replay_and_probe(const Options& options, Setup& setup,
                        ReplayInputs in, SpanRecorder& spans,
                        std::uint64_t& failed) {
  const std::size_t first = spans.spans().size();
  const auto artifact_of = [&](const std::string& app) {
    return setup.registry.require({app, "v100"});
  };
  const auto median_us = [&](std::string_view name) {
    return median_seconds(spans, first, name) * 1e6;
  };
  const auto median_ns = [&](std::string_view name) {
    return median_seconds(spans, first, name) * 1e9;
  };
  Values out;

  // The standard probe set, so every layer has pieces to replay even on
  // workloads that never reach it.
  serve::TrafficConfig probe_traffic;
  probe_traffic.requests = options.smoke ? 8 : 64;
  probe_traffic.population = 64;
  probe_traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
  probe_traffic.seed = derive_seed(options.seed, kProbeStream);
  const std::vector<serve::TimedJob> probe_jobs =
      serve::generate_job_trace(probe_traffic);

  // Advisor: serial, then batched per application.
  const serve::Advisor advisor;
  std::vector<serve::AdviseRequest> probe_requests;
  std::vector<serve::AdviseAnswer> probe_answers;
  for (std::size_t i = 0; i < probe_jobs.size(); ++i) {
    const serve::AdviseRequest& request = probe_jobs[i].request;
    const auto artifact = artifact_of(request.application);
    Scoped span(&spans, "advisor.advise", kAdvise, i);
    probe_answers.push_back(advisor.advise(*artifact, request));
    probe_requests.push_back(request);
  }
  std::vector<double> batch_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const char* app : {"cronos", "ligen"}) {
      std::vector<serve::AdviseRequest> requests;
      std::vector<serve::AdviseAnswer> expected;
      for (std::size_t i = 0; i < probe_requests.size(); ++i) {
        if (probe_requests[i].application == app) {
          requests.push_back(probe_requests[i]);
          expected.push_back(probe_answers[i]);
        }
      }
      if (requests.empty()) {
        continue;
      }
      const auto artifact = artifact_of(app);
      std::vector<serve::AdviseAnswer> answers;
      const double s = timed(spans, "advisor.advise_batch", kAdvise, kNoId,
                             [&] {
                               answers =
                                   advisor.advise_batch(*artifact, requests);
                             });
      batch_us.push_back(s * 1e6 / static_cast<double>(requests.size()));
      if (answers != expected) {
        ++failed;
      }
    }
  }
  out["serve.advise_us"] = median_us("advisor.advise");
  out["serve.advise_batch_us_per_request"] = stats::median(batch_us);

  // Per-request pieces: key, cache lookup, artifact resolve, and for each
  // answer the round computed, the forest prediction and the Pareto pick,
  // which together must equal the advisor's answer bit for bit.
  if (in.requests.size() > kMaxReplayRequests) {
    in.requests.resize(kMaxReplayRequests);
    in.answers.resize(kMaxReplayRequests);
    in.computed.resize(kMaxReplayRequests);
  }
  in.requests.insert(in.requests.end(), probe_requests.begin(),
                     probe_requests.end());
  in.answers.insert(in.answers.end(), probe_answers.begin(),
                    probe_answers.end());
  in.computed.insert(in.computed.end(), probe_requests.size(), true);
  const serve::ServeConfig serve_config;
  serve::LruCache cache(serve_config.cache_capacity);
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const serve::AdviseRequest& request = in.requests[i];
    std::string key;
    {
      Scoped span(&spans, "cache_key", kKey, i);
      key = serve::cache_key({request.application, serve_config.device},
                             request, serve_config.cache_quant_step);
    }
    serve::AdviseAnswer cached;
    bool hit = false;
    {
      Scoped span(&spans, "lru.get", kCache, i);
      hit = cache.get(key, cached);
    }
    if (!hit) {
      cache.put(key, in.answers[i]);
    }
    std::shared_ptr<const serve::ModelArtifact> artifact;
    {
      Scoped span(&spans, "registry.require", kRegistry, i);
      artifact = artifact_of(request.application);
    }
    if (!in.computed[i]) {
      continue;
    }
    core::Prediction pred;
    {
      Scoped span(&spans, "ds.predict", kPredict, i);
      pred = artifact->ds->predict(request.features, artifact->freqs_mhz,
                                   artifact->default_freq_mhz);
    }
    std::size_t pick = 0;
    bool infeasible = false;
    {
      Scoped span(&spans, "pick_within_slowdown", kPick, i);
      pick = serve::pick_within_slowdown(pred, request.max_slowdown,
                                         &infeasible);
    }
    if (!(answer_at(pred, pick, infeasible) == in.answers[i])) {
      ++failed;
    }
  }
  out["serve.cache_key_ns"] = median_ns("cache_key");
  out["serve.lru_get_ns"] = median_ns("lru.get");
  out["serve.registry_require_ns"] = median_ns("registry.require");
  out["core.ds_predict_us"] = median_us("ds.predict");
  out["serve.pick_us"] = median_us("pick_within_slowdown");

  // Per-job pieces: the reference run that sets the deadline, the strided
  // prediction, the clock pick at the job's start, and the run on the
  // job's replica at the picked clock. Jobs the round scheduled must get
  // the scheduler's clock, deadline and true cost back.
  in.jobs.insert(in.jobs.end(), probe_jobs.begin(), probe_jobs.end());
  sim::ProfileCache profile_cache;
  const sim::DeviceSpec spec = sim::v100();
  const sim::Device rank_device(spec, sim::NoiseConfig{});
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const serve::TimedJob& job = in.jobs[i];
    const sched::JobOutcome* outcome =
        i < in.outcomes.size() ? &in.outcomes[i] : nullptr;
    double ref_time_s = 0.0;
    double ref_energy_j = 0.0;
    timed(spans, "reference_run", kSim, i, [&] {
      sim::Device ref_device(spec, sim::NoiseConfig::none(), 0);
      synergy::Device ref_synergy(ref_device);
      synergy::Queue queue(ref_synergy, synergy::ExecMode::kSimOnly);
      queue.set_profile_cache(&profile_cache);
      serve::make_workload(job.spec)->submit(queue);
      ref_time_s = queue.total_time_s();
      ref_energy_j = queue.total_energy_j();
    });
    const auto artifact = artifact_of(job.spec.application);
    const std::vector<double> candidates =
        strided(artifact->freqs_mhz, in.sched.freq_stride);
    core::Prediction pred;
    {
      Scoped span(&spans, "ds.predict_strided", kPredict, i);
      pred = artifact->ds->predict(job.request.features, candidates,
                                   artifact->default_freq_mhz);
    }
    std::vector<double> cand_time_s;
    std::vector<double> cand_energy_j;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      cand_time_s.push_back(ref_time_s / pred.speedup[k]);
      cand_energy_j.push_back(ref_energy_j * pred.norm_energy[k]);
    }
    const double deadline_s =
        job.arrival_s + job.deadline_slack * ref_time_s;
    const double start_s = outcome != nullptr ? outcome->start_s
                                              : job.arrival_s;
    sched::FrequencyPick pick;
    {
      Scoped span(&spans, "pick_deadline_frequency", kSchedPick, i);
      pick = sched::pick_deadline_frequency(cand_time_s, cand_energy_j,
                                            start_s, deadline_s,
                                            in.sched.margin);
    }
    const double freq_mhz = candidates[pick.index];
    double true_time_s = 0.0;
    double true_energy_j = 0.0;
    timed(spans, "replica_run", kSim, i, [&] {
      sim::Device replica = rank_device.replica(derive_seed(
          in.sched.seed, static_cast<std::uint64_t>(i)));
      replica.set_fault_config({});
      synergy::Device device(replica);
      synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
      queue.set_profile_cache(&profile_cache);
      queue.set_target_frequency(freq_mhz);
      serve::make_workload(job.spec)->submit(queue);
      true_time_s = queue.total_time_s();
      true_energy_j = queue.total_energy_j();
    });
    if (outcome != nullptr &&
        (outcome->deadline_s != deadline_s ||
         outcome->infeasible != !pick.feasible ||
         (!outcome->rejected &&
          (outcome->freq_mhz != freq_mhz ||
           outcome->true_time_s != true_time_s ||
           outcome->true_energy_j != true_energy_j)))) {
      ++failed;
    }
  }
  out["sim.ref_run_us"] = median_us("reference_run");
  out["sim.replica_run_us"] = median_us("replica_run");
  out["core.ds_predict_strided_us"] = median_us("ds.predict_strided");
  out["sched.pick_ns"] = median_ns("pick_deadline_frequency");

  // Ledger: append every record of the round's ledger (or of a stand-in
  // one) to a fresh ledger, then summarize and export it.
  obs::Ledger stand_in;
  const obs::Ledger* source = in.ledger;
  if (source == nullptr) {
    fill_stand_in_ledger(stand_in, in);
    source = &stand_in;
  }
  obs::Ledger ledger;
  for (const obs::RequestRecord& record : source->requests()) {
    Scoped span(&spans, "ledger.add", kLedger, record.index);
    ledger.add(record);
  }
  for (const obs::JobRecord& record : source->jobs()) {
    Scoped span(&spans, "ledger.add", kLedger, record.index);
    ledger.add(record);
  }
  if (ledger.requests() != source->requests() ||
      ledger.jobs() != source->jobs()) {
    ++failed;
  }
  const double records = static_cast<double>(source->requests().size() +
                                             source->jobs().size());
  const double summary_s = timed(spans, "ledger.to_json", kLedger, kNoId,
                                 [&] { ledger.to_json(true); });
  const std::string ledger_path = options.work_dir + "/replay-ledger.json";
  const double write_s = timed(spans, "ledger.write_file", kLedger, kNoId,
                               [&] { ledger.write_file(ledger_path); });
  out["obs.ledger_add_ns"] = median_ns("ledger.add");
  out["obs.ledger_summary_us_per_record"] = summary_s * 1e6 / records;
  out["obs.ledger_write_us_per_record"] = write_s * 1e6 / records;
  out["obs.ledger_bytes"] =
      static_cast<double>(std::filesystem::file_size(ledger_path));
  std::filesystem::remove(ledger_path);

  // Artifact and JSON: one dsem-model-v1 round trip through a file, and
  // the dump and parse it is made of, on the artifact serve_churn reloads.
  const auto artifact = artifact_of("cronos");
  const std::string artifact_path =
      options.work_dir + "/replay-artifact.json";
  out["serve.artifact_save_s"] =
      timed(spans, "artifact.save_file", kSerialize, kNoId,
            [&] { artifact->save_file(artifact_path); });
  serve::ModelArtifact loaded;
  out["serve.artifact_load_s"] =
      timed(spans, "artifact.load_file", kSerialize, kNoId, [&] {
        loaded = serve::ModelArtifact::load_file(artifact_path);
      });
  std::filesystem::remove(artifact_path);
  for (std::size_t i = 0; i < probe_requests.size(); ++i) {
    if (probe_requests[i].application == "cronos" &&
        !(advisor.advise(loaded, probe_requests[i]) == probe_answers[i])) {
      ++failed;
    }
  }
  std::string text;
  const double dump_s = timed(spans, "json.dump", kSerialize, kNoId, [&] {
    text = artifact->to_json().dump();
  });
  json::Value parsed;
  const double parse_s = timed(spans, "json.parse", kSerialize, kNoId,
                               [&] { parsed = json::Value::parse(text); });
  if (!parsed.is_object()) {
    ++failed;
  }
  const double mb = static_cast<double>(text.size()) * 1e-6;
  out["json.dump_mb_per_s"] = mb / dump_s;
  out["json.parse_mb_per_s"] = mb / parse_s;

  // Training: the LiGen serving training sweep, fitted three times; the
  // fits must agree bit for bit.
  sim::Device sim_device(spec, sim::NoiseConfig{},
                         derive_seed(options.seed, kProbeStream));
  synergy::Device device(sim_device);
  const auto workloads = serve::training_set("ligen", options.smoke);
  const std::vector<double> freqs =
      strided(device.supported_frequencies(), 4);
  core::SweepOptions sweep;
  sweep.repetitions = 2;
  core::Dataset dataset;
  timed(spans, "build_dataset", kSweep, kNoId, [&] {
    dataset = core::build_dataset(device, workloads, sweep, freqs);
  });
  std::vector<double> fit_s;
  std::vector<double> first_fit;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    core::DomainSpecificModel model;
    fit_s.push_back(
        timed(spans, "ds.train", kFit, rep, [&] { model.train(dataset); }));
    const auto pred = model.predict(workloads.front()->domain_features(),
                                    freqs, device.default_frequency());
    if (rep == 0) {
      first_fit = pred.time_s;
    } else if (pred.time_s != first_fit) {
      ++failed;
    }
  }
  out["core.ds_train_s"] = stats::median(fit_s);
  return out;
}

} // namespace dsem_bench
