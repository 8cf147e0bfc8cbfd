// The six benchmark workloads. A round is a fixed amount of work on
// inputs drawn from the seed; check() then digests and checks its outputs
// outside the timed region, and every round of a run must give the same
// digest. Spans wrap the public calls a round makes (a null recorder makes
// them free), so the traced round is the untraced round.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <string_view>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "microbench/suite.hpp"
#include "serve/loop.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"

namespace dsem_bench {

using namespace dsem;

namespace {

// Independent seed streams derived from --seed.
constexpr std::uint64_t kSetupStream = 1;
constexpr std::uint64_t kPaperStream = 2;
constexpr std::uint64_t kTrafficStream = 3;
constexpr std::uint64_t kSchedStream = 4;

/// Chained FNV-1a over output values: doubles by their bit pattern,
/// strings with their length.
class Digest {
public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::unique_ptr<Setup> train_setup(const Options& options) {
  auto setup = std::make_unique<Setup>();
  sim::Device sim_device(sim::v100(), sim::NoiseConfig{},
                         derive_seed(options.seed, kSetupStream));
  synergy::Device device(sim_device);
  serve::TrainConfig config;
  config.sweep.repetitions = 2;
  config.compact = options.smoke;
  config.origin = "dsem_bench";
  Digest digest;
  for (const char* app : {"cronos", "ligen"}) {
    serve::ModelArtifact artifact =
        serve::train_domain_specific(device, {app, "v100"}, config);
    const auto inputs = serve::training_set(app, options.smoke);
    const core::Prediction pred =
        artifact.ds->predict(inputs[inputs.size() / 2]->domain_features(),
                             artifact.freqs_mhz, artifact.default_freq_mhz);
    for (std::size_t i = 0; i < pred.freqs_mhz.size(); ++i) {
      digest.add(pred.time_s[i]);
      digest.add(pred.energy_j[i]);
    }
    setup->registry.put(std::move(artifact));
  }
  setup->digest = digest.value();
  return setup;
}

namespace {

// Layers the traced round charges its spans to.
constexpr const char* kSweep = "core.sweep";
constexpr const char* kFitEval = "core.fit_eval";
constexpr const char* kServeLoop = "serve.loop";
constexpr const char* kReload = "serve.reload";
constexpr const char* kSchedRun = "sched.run";
constexpr const char* kExport = "obs.export";

/// Served answers per round that check() recomputes through the
/// advisor's serial path.
constexpr std::size_t kReferenceSamples = 16;

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Writes the ledger where a user would export it, then removes the file.
void export_ledger(const obs::Ledger& ledger, const std::string& path,
                   SpanRecorder* spans) {
  {
    Scoped span(spans, "ledger.write_file", kExport);
    ledger.write_file(path);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// paper_fig13: the Fig. 13 protocol end to end, on the inputs of
// bench/fig13_model_accuracy. They are spelled out here so that the
// benchmark's inputs change only when the benchmark does.

std::vector<std::unique_ptr<core::Workload>>
cronos_grids(std::initializer_list<int> sizes) {
  std::vector<std::unique_ptr<core::Workload>> out;
  for (const int n : sizes) {
    const int side = std::max(4, n * 2 / 5);
    out.push_back(std::make_unique<core::CronosWorkload>(
        cronos::GridDims{n, side, side}, 10));
  }
  return out;
}

std::vector<std::unique_ptr<core::Workload>>
ligen_tuples(std::initializer_list<int> ligands,
             std::initializer_list<int> atoms,
             std::initializer_list<int> fragments) {
  std::vector<std::unique_ptr<core::Workload>> out;
  for (const int l : ligands) {
    for (const int a : atoms) {
      for (const int f : fragments) {
        out.push_back(std::make_unique<core::LigenWorkload>(l, a, f));
      }
    }
  }
  return out;
}

std::vector<std::string> names_of(
    const std::vector<std::unique_ptr<core::Workload>>& workloads) {
  std::vector<std::string> out;
  for (const auto& workload : workloads) {
    out.push_back(workload->name());
  }
  return out;
}

class PaperFig13 final : public Workload {
public:
  explicit PaperFig13(const Options& options)
      : sim_(sim::v100(), sim::NoiseConfig{},
             derive_seed(options.seed, kPaperStream)),
        device_(sim_), suite_(microbench::make_suite()) {
    if (!options.smoke) {
      cronos_ = cronos_grids({10, 20, 30, 40, 60, 80, 120, 160});
      cronos_reported_ = names_of(cronos_grids({10, 20, 40, 80, 160}));
      ligen_ = ligen_tuples({2, 16, 128, 192, 256, 384, 512, 1024, 4096,
                             10000},
                            {31, 63, 74, 89}, {4, 8, 16, 20});
      ligen_reported_ =
          names_of(ligen_tuples({256, 4096, 10000}, {31, 89}, {4, 20}));
      return;
    }
    // The same calls on a few inputs, clocks and kernels.
    suite_.resize(24);
    gp_stride_ = 16;
    repetitions_ = 1;
    const auto all = device_.supported_frequencies();
    for (std::size_t i = 0; i < all.size(); i += 8) {
      freqs_.push_back(all[i]);
    }
    cronos_ = cronos_grids({10, 20, 30, 40});
    cronos_reported_ = names_of(cronos_grids({10, 30}));
    ligen_ = ligen_tuples({16, 256, 4096}, {31, 89}, {4, 20});
    ligen_reported_ = names_of(ligen_tuples({256}, {31, 89}, {4}));
  }

  void round(SpanRecorder* spans) override {
    core::GeneralPurposeModel gp;
    {
      Scoped span(spans, "gp.train", kFitEval);
      gp.train(device_, suite_, gp_repetitions_, gp_stride_);
    }
    fit_rows_ = static_cast<double>(gp.training_rows());
    const auto evaluate = [&](const char* sweep_name, const char* eval_name,
                              const auto& workloads, const auto& reported) {
      core::Dataset dataset;
      {
        Scoped span(spans, sweep_name, kSweep);
        dataset = core::build_dataset(device_, workloads, repetitions_, freqs_);
      }
      core::AccuracyReport report;
      {
        Scoped span(spans, eval_name, kFitEval);
        report = core::evaluate_accuracy(dataset, workloads, gp, reported);
      }
      for (const core::AccuracyRow& row : report.rows) {
        fit_rows_ += static_cast<double>(
            dataset.rows() -
            dataset.rows_of_group(dataset.group_of(row.input)).size());
      }
      return report;
    };
    cronos_report_ = evaluate("cronos.build_dataset",
                              "cronos.evaluate_accuracy", cronos_,
                              cronos_reported_);
    ligen_report_ = evaluate("ligen.build_dataset", "ligen.evaluate_accuracy",
                             ligen_, ligen_reported_);
  }

  RoundResult check() override {
    RoundResult result;
    Digest digest;
    double ds_speedup = 0.0;
    double gp_speedup = 0.0;
    double ds_energy = 0.0;
    double gp_energy = 0.0;
    for (const auto* report : {&cronos_report_, &ligen_report_}) {
      for (const core::AccuracyRow& row : report->rows) {
        const double values[] = {row.gp_speedup_mape, row.ds_speedup_mape,
                                 row.gp_energy_mape, row.ds_energy_mape};
        digest.add(row.input);
        for (const double v : values) {
          digest.add(v);
          if (!std::isfinite(v) || v < 0.0) {
            ++result.failed_checks;
          }
        }
        ds_speedup += row.ds_speedup_mape;
        gp_speedup += row.gp_speedup_mape;
        ds_energy += row.ds_energy_mape;
        gp_energy += row.gp_energy_mape;
      }
      result.ops += report->rows.size();
    }
    if (result.ops != cronos_reported_.size() + ligen_reported_.size()) {
      ++result.failed_checks;
    }
    // The paper's claim, on means over the reported inputs: the
    // domain-specific models predict both curves better than the
    // general-purpose model.
    if (!(ds_speedup < gp_speedup && ds_energy < gp_energy)) {
      ++result.failed_checks;
    }
    result.quality_ratio =
        ratio(ds_speedup + ds_energy, gp_speedup + gp_energy);
    result.digest = digest.value();
    result.counts["ml.fit_rows"] = fit_rows_;
    return result;
  }

  ReplayInputs replay_inputs() const override { return {}; }

private:
  sim::Device sim_;
  synergy::Device device_;
  std::vector<microbench::MicroBenchmark> suite_;
  std::vector<std::unique_ptr<core::Workload>> cronos_;
  std::vector<std::unique_ptr<core::Workload>> ligen_;
  std::vector<std::string> cronos_reported_;
  std::vector<std::string> ligen_reported_;
  std::vector<double> freqs_; ///< empty = every supported clock
  int repetitions_ = 5;
  int gp_repetitions_ = 3;
  std::size_t gp_stride_ = 4;
  // The last round's outputs.
  core::AccuracyReport cronos_report_;
  core::AccuracyReport ligen_report_;
  double fit_rows_ = 0.0; ///< GP rows plus every fold's DS rows
};

// ---------------------------------------------------------------------------
// serve_*: the advisor serving loop over a Poisson request trace.

struct ServeShape {
  std::size_t requests = 0;
  double rate_hz = 2000.0;
  std::size_t population = 0;
  bool ledger = false;
  /// One loop for the whole run, its cache filled before timing.
  bool warm = false;
  /// Redeployments of the Cronos artifact (save, load, re-register)
  /// spread evenly over a round.
  int reloads = 0;
};

class Serve final : public Workload {
public:
  Serve(const Options& options, Setup& setup, ServeShape shape)
      : setup_(setup), shape_(shape),
        ledger_path_(options.work_dir + "/serve-ledger.json"),
        artifact_path_(options.work_dir + "/serve-cronos.json") {
    serve::TrafficConfig traffic;
    traffic.requests = shape.requests;
    traffic.arrival_rate_hz = shape.rate_hz;
    traffic.population = shape.population;
    traffic.seed = derive_seed(options.seed, kTrafficStream);
    trace_ = serve::generate_trace(traffic);
  }

  /// A warm shape fills its long-lived loop's cache with every key of the
  /// trace, so the timed rounds answer from the cache alone.
  void warm_up() override {
    if (shape_.warm) {
      warm_ = std::make_unique<serve::ServeLoop>(setup_.registry,
                                                 serve::ServeConfig{});
      warm_->run(trace_);
    }
  }

  void round(SpanRecorder* spans) override {
    ledger_ = std::make_unique<obs::Ledger>();
    serve::ServeConfig config;
    if (shape_.ledger) {
      config.ledger = ledger_.get();
    }
    std::unique_ptr<serve::ServeLoop> fresh;
    serve::ServeLoop* loop = warm_.get();
    if (loop == nullptr) {
      fresh = std::make_unique<serve::ServeLoop>(setup_.registry, config);
      loop = fresh.get();
    }

    // The trace runs in reloads + 1 contiguous segments; the loop's cache
    // persists across them, so a reload invalidates what it cached.
    responses_.clear();
    stats_ = serve::ServeStats{};
    const std::size_t segments = static_cast<std::size_t>(shape_.reloads) + 1;
    for (std::size_t s = 0; s < segments; ++s) {
      if (s > 0) {
        reload(spans);
      }
      const std::size_t begin = trace_.size() * s / segments;
      const std::size_t end = trace_.size() * (s + 1) / segments;
      std::vector<serve::AdviseResponse> part;
      {
        Scoped span(spans, "serve_loop.run", kServeLoop);
        part = loop->run(std::span<const serve::TimedRequest>(trace_).subspan(
            begin, end - begin));
      }
      if (responses_.empty()) {
        responses_ = std::move(part);
      } else {
        responses_.insert(responses_.end(),
                          std::make_move_iterator(part.begin()),
                          std::make_move_iterator(part.end()));
      }
      const serve::ServeStats& stats = loop->stats();
      stats_.requests += stats.requests;
      stats_.served += stats.served;
      stats_.shed += stats.shed;
      stats_.cache_hits += stats.cache_hits;
      stats_.cache_misses += stats.cache_misses;
      stats_.cache_invalidations += stats.cache_invalidations;
      stats_.batches += stats.batches;
    }
    if (shape_.ledger) {
      export_ledger(*ledger_, ledger_path_, spans);
    }
  }

  RoundResult check() override {
    RoundResult result;
    result.ops = trace_.size();
    if (responses_.size() != trace_.size()) {
      ++result.failed_checks;
      return result;
    }
    Digest digest;
    double norm_energy = 0.0;
    const serve::Advisor advisor;
    const std::size_t sample_every = std::max<std::size_t>(
        1, trace_.size() / kReferenceSamples);
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const serve::AdviseResponse& response = responses_[i];
      const serve::AdviseRequest& request = trace_[i].request;
      const serve::AdviseAnswer& answer = response.answer;
      digest.add(std::uint64_t{response.shed});
      digest.add(std::uint64_t{response.cache_hit});
      digest.add(answer.freq_mhz);
      digest.add(answer.predicted_time_s);
      digest.add(answer.predicted_energy_j);
      digest.add(answer.predicted_speedup);
      digest.add(answer.predicted_norm_energy);
      digest.add(std::uint64_t{answer.budget_infeasible});
      digest.add(response.latency_s);
      digest.add(response.model);
      if (response.shed) {
        continue;
      }
      norm_energy += answer.predicted_norm_energy;
      // A within-budget answer keeps the slowdown within the budget; a
      // sample of answers, cached ones included, must be what the
      // advisor's serial path gives for that request.
      const bool over_budget =
          !answer.budget_infeasible &&
          1.0 - answer.predicted_speedup > request.max_slowdown;
      const bool sampled = i % sample_every == 0;
      if (!(answer.freq_mhz > 0.0) || over_budget ||
          (sampled &&
           !(advisor.advise(*setup_.registry.require(
                                {request.application, "v100"}),
                            request) == answer))) {
        ++result.failed_checks;
      }
    }
    if (stats_.served + stats_.shed != stats_.requests ||
        stats_.requests != trace_.size() ||
        stats_.cache_hits + stats_.cache_misses != stats_.served ||
        (shape_.ledger && ledger_->requests().size() != trace_.size()) ||
        (shape_.reloads > 0 && stats_.cache_invalidations == 0)) {
      ++result.failed_checks;
    }
    result.digest = digest.value();
    result.quality_ratio =
        ratio(norm_energy, static_cast<double>(stats_.served));
    result.counts["serve.hit_rate"] = stats_.hit_rate();
    result.counts["serve.misses"] = static_cast<double>(stats_.cache_misses);
    result.counts["serve.mean_batch_size"] =
        ratio(static_cast<double>(stats_.served),
              static_cast<double>(stats_.batches));
    result.counts["serve.shed_rate"] = stats_.shed_rate();
    result.counts["serve.cache_invalidations"] =
        static_cast<double>(stats_.cache_invalidations);
    // Released here, not at the start of the next round, so that freeing
    // this round's outputs is not timed as part of the next.
    responses_.clear();
    return result;
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      if (responses_[i].shed) {
        continue;
      }
      in.requests.push_back(trace_[i].request);
      in.answers.push_back(responses_[i].answer);
      in.computed.push_back(!responses_[i].cache_hit);
    }
    if (shape_.ledger) {
      in.ledger = ledger_.get();
    }
    return in;
  }

private:
  /// Redeploys the Cronos model: its artifact goes to a file, comes back,
  /// and replaces the registered one.
  void reload(SpanRecorder* spans) {
    const auto current = setup_.registry.require({"cronos", "v100"});
    {
      Scoped span(spans, "artifact.save_file", kReload);
      current->save_file(artifact_path_);
    }
    serve::ModelArtifact loaded;
    {
      Scoped span(spans, "artifact.load_file", kReload);
      loaded = serve::ModelArtifact::load_file(artifact_path_);
    }
    {
      Scoped span(spans, "registry.put", kReload);
      setup_.registry.put(std::move(loaded));
    }
    std::filesystem::remove(artifact_path_);
  }

  Setup& setup_;
  ServeShape shape_;
  std::string ledger_path_;
  std::string artifact_path_;
  std::vector<serve::TimedRequest> trace_;
  std::unique_ptr<serve::ServeLoop> warm_;
  // The last round's outputs.
  std::vector<serve::AdviseResponse> responses_;
  serve::ServeStats stats_; ///< summed over the round's segments
  std::unique_ptr<obs::Ledger> ledger_;
};

// ---------------------------------------------------------------------------
// sched_stream: deadline-tagged jobs on a 4-rank V100 cluster.

class SchedStream final : public Workload {
public:
  SchedStream(const Options& options, Setup& setup)
      : setup_(setup), ledger_path_(options.work_dir + "/sched-ledger.json") {
    serve::TrafficConfig traffic;
    traffic.requests = options.smoke ? 32 : 2500;
    traffic.arrival_rate_hz = 4.0;
    traffic.population = 64;
    traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
    traffic.seed = derive_seed(options.seed, kTrafficStream);
    jobs_ = serve::generate_job_trace(traffic);
    config_.frequency = sched::FrequencyPolicy::kModel;
    config_.margin = 3.0;
    config_.seed = derive_seed(options.seed, kSchedStream);
  }

  void round(SpanRecorder* spans) override {
    ledger_ = std::make_unique<obs::Ledger>();
    sched::SchedConfig config = config_;
    config.ledger = ledger_.get();
    celerity::Cluster cluster(sim::v100(), cluster_config());
    sched::ClusterScheduler scheduler(cluster, setup_.registry, config);
    {
      Scoped span(spans, "scheduler.run", kSchedRun);
      outcomes_ = scheduler.run(jobs_);
    }
    stats_ = scheduler.stats();
    export_ledger(*ledger_, ledger_path_, spans);
  }

  RoundResult check() override {
    RoundResult result;
    result.ops = jobs_.size();
    Digest digest;
    for (const sched::JobOutcome& outcome : outcomes_) {
      digest.add(std::uint64_t{outcome.rejected});
      digest.add(std::uint64_t{outcome.infeasible});
      digest.add(std::uint64_t{outcome.missed});
      digest.add(static_cast<std::uint64_t>(outcome.rank + 1));
      digest.add(outcome.freq_mhz);
      digest.add(outcome.start_s);
      digest.add(outcome.finish_s);
      digest.add(outcome.true_energy_j);
      digest.add(outcome.predicted_energy_j);
      // A clock picked as feasible meets the deadline under the margin.
      const bool late_pick = !outcome.infeasible &&
                             outcome.start_s + config_.margin *
                                                   outcome.predicted_time_s >
                                 outcome.deadline_s;
      if (late_pick ||
          (!outcome.rejected &&
           (outcome.rank < 0 || outcome.rank >= cluster_config().nodes ||
            !(outcome.freq_mhz > 0.0) ||
            outcome.finish_s < outcome.start_s))) {
        ++result.failed_checks;
      }
    }
    digest.add(stats_.energy_j);
    if (outcomes_.size() != jobs_.size() ||
        stats_.completed + stats_.rejected != stats_.jobs ||
        stats_.jobs != jobs_.size() || !std::isfinite(stats_.energy_j) ||
        !(stats_.energy_j > 0.0) || ledger_->jobs().size() != jobs_.size()) {
      ++result.failed_checks;
    }
    result.digest = digest.value();
    result.counts["sched.infeasible"] = static_cast<double>(stats_.infeasible);
    result.counts["sched.deadline_misses"] =
        static_cast<double>(stats_.misses);
    return result;
  }

  /// The baseline the model policy is judged against: every rank pinned
  /// to the maximum clock, on the same jobs.
  void finish(RoundResult& result) override {
    celerity::Cluster cluster(sim::v100(), cluster_config());
    sched::SchedConfig config = config_;
    config.frequency = sched::FrequencyPolicy::kMaxClock;
    sched::ClusterScheduler scheduler(cluster, setup_.registry, config);
    scheduler.run(jobs_);
    result.quality_ratio = ratio(stats_.energy_j, scheduler.stats().energy_j);
    // The model policy must save energy over max-clock scheduling.
    if (!(result.quality_ratio < 1.0)) {
      ++result.failed_checks;
    }
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.jobs = jobs_;
    in.outcomes = outcomes_;
    in.sched = config_;
    in.ledger = ledger_.get();
    return in;
  }

private:
  static celerity::ClusterConfig cluster_config() {
    celerity::ClusterConfig config;
    config.nodes = 4;
    return config;
  }

  Setup& setup_;
  std::string ledger_path_;
  std::vector<serve::TimedJob> jobs_;
  sched::SchedConfig config_;
  // The last round's outputs.
  std::vector<sched::JobOutcome> outcomes_;
  sched::SchedStats stats_;
  std::unique_ptr<obs::Ledger> ledger_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const Options& options,
                                        Setup& setup) {
  const bool smoke = options.smoke;
  const std::string& name = options.workload;
  if (name == "paper_fig13") {
    return std::make_unique<PaperFig13>(options);
  }
  if (name == "sched_stream") {
    return std::make_unique<SchedStream>(options, setup);
  }
  ServeShape shape;
  if (name == "serve_mixed") {
    shape.requests = smoke ? 1000 : 20000;
    shape.population = smoke ? 4 : 64;
    shape.ledger = true;
  } else if (name == "serve_burst") {
    shape.requests = smoke ? 500 : 10000;
    shape.rate_hz = 20000.0;
    shape.population = smoke ? 16 : 1024;
  } else if (name == "serve_hot") {
    shape.requests = smoke ? 5000 : 300000;
    shape.population = smoke ? 2 : 8;
    shape.warm = true;
  } else if (name == "serve_churn") {
    shape.requests = smoke ? 1000 : 10000;
    shape.population = smoke ? 4 : 32;
    shape.reloads = 2;
  } else {
    DSEM_ENSURE(false, "unknown workload: " + name);
  }
  return std::make_unique<Serve>(options, setup, shape);
}

} // namespace dsem_bench
