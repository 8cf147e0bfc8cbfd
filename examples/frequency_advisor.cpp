// Frequency advisor: the paper's future-work integration — given an
// application, an input, and an energy/performance policy, train the
// domain-specific model on a quick input sweep and recommend a core
// frequency (what SYnergy's per-kernel frequency selection would consume).
//
// Three modes:
//  - one-shot (default): train (or load, --model-in) a model, answer one
//    query, verify the answer against measurement.
//  - --train-out PATH: additionally save the trained model as a
//    "dsem-model-v1" artifact; later runs pass --model-in PATH to skip
//    the training sweep entirely (train once, load anywhere).
//    --model-kind picks the family (ds | hybrid) and --dataset-out
//    exports the training sweep as a "dsem-dataset-v1" document.
//  - --serve: replay a deterministic Poisson request stream (LiGen +
//    Cronos mix) through the serve:: loop — batched inference, LRU
//    answer cache, admission control — and report latency percentiles,
//    throughput, and hit/shed rates.
//
// Doubles as the fault-injection demo: --fault-rate (and the per-kind
// flags, see --help) make the simulated device fail transiently; the
// pipeline retries, records exhausted grid points as failed, and prints
// the recovery accounting at the end.
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/sweep_report.hpp"
#include "obs/session.hpp"
#include "serve/loop.hpp"
#include "serve/train.hpp"

namespace {

using namespace dsem;

std::unique_ptr<core::Workload> parse_target(const std::string& app,
                                             const std::string& input) {
  // Input format: AxBxC — grid dims for cronos, atoms x frags x ligands
  // for ligen (the paper's naming convention).
  int a = 0;
  int b = 0;
  int c = 0;
  DSEM_ENSURE(std::sscanf(input.c_str(), "%dx%dx%d", &a, &b, &c) == 3,
              "input must look like 120x48x48 (cronos) or 89x8x2048 (ligen)");
  if (app == "cronos") {
    return std::make_unique<core::CronosWorkload>(cronos::GridDims{a, b, c},
                                                  10);
  }
  return std::make_unique<core::LigenWorkload>(/*ligands=*/c, /*atoms=*/a,
                                               /*fragments=*/b);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<std::string> split_paths(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream stream(list);
  std::string path;
  while (std::getline(stream, path, ',')) {
    if (!path.empty()) {
      out.push_back(path);
    }
  }
  return out;
}

/// Returns the artifact for (app, device_name), loading preferred over
/// training: --model-in artifacts were registered up front, so a hit
/// here skips the training sweep entirely. `kind` picks the trained
/// family: "ds" (domain-specific) or "hybrid".
std::shared_ptr<const serve::ModelArtifact>
obtain_model(serve::ModelRegistry& registry, const std::string& app,
             const std::string& device_name, synergy::Device& device,
             const core::SweepOptions& sweep, core::SweepReport& report,
             const std::string& kind = "ds") {
  const serve::ModelKey key{app, device_name};
  if (auto loaded = registry.get(key)) {
    std::cout << "using loaded model " << key.to_string() << " ("
              << loaded->origin << ")\n";
    return loaded;
  }
  DSEM_ENSURE(kind == "ds" || kind == "hybrid",
              "unknown model kind: " + kind);
  std::cout << "profiling " << app << " training sweep on " << device.name()
            << " (" << kind << " model)...\n";
  serve::TrainConfig train;
  train.sweep = sweep;
  train.origin = "frequency_advisor";
  const auto start = std::chrono::steady_clock::now();
  registry.put(kind == "hybrid"
                   ? serve::train_hybrid(device, key, train)
                   : serve::train_domain_specific(device, key, train));
  report.add_phase("train " + app, seconds_since(start));
  return registry.require(key);
}

/// --dataset-out: export the application's full training-grid sweep as a
/// "dsem-dataset-v1" document (the format the golden evaluation datasets
/// under tests/data/ are pinned in).
void export_dataset(const std::string& path, const std::string& app,
                    synergy::Device& device, const core::SweepOptions& sweep,
                    std::size_t stride, core::SweepReport& report) {
  const auto workloads = serve::training_set(app, /*compact=*/false);
  const std::vector<double> freqs =
      core::every_nth(device.supported_frequencies(), stride);
  const auto start = std::chrono::steady_clock::now();
  const core::Dataset dataset =
      core::build_dataset(device, workloads, sweep, freqs);
  report.add_phase("dataset export", seconds_since(start));
  core::save_dataset(dataset, path);
  std::cout << "saved " << app << " dataset (" << dataset.rows()
            << " rows, " << dataset.num_groups() << " inputs) to " << path
            << "\n";
}

/// The --serve flags, read before any sweep runs so a bad value fails
/// first.
struct ServeSetup {
  serve::TrafficConfig traffic;
  serve::ServeConfig config;
};

ServeSetup serve_setup(const CliParser& cli, obs::Ledger* ledger) {
  ServeSetup setup;
  serve::TrafficConfig& traffic = setup.traffic;
  traffic.requests = cli.option_size("requests");
  traffic.arrival_rate_hz = cli.option_double("arrival-rate");
  traffic.ligen_fraction = cli.option_double("ligen-fraction");
  traffic.population = cli.option_size("population");
  traffic.seed = std::stoull(cli.option("traffic-seed"), nullptr, 0);

  serve::ServeConfig& config = setup.config;
  config.device = cli.option("device");
  config.batch_size = cli.option_size("batch-size");
  config.admission_bound = cli.option_size("admission-bound", 0);
  config.cache_capacity = cli.option_size("cache-capacity", 0);
  config.cache_quant_step = cli.option_double("cache-quant");
  config.ledger = ledger;
  return setup;
}

void run_serve_mode(const ServeSetup& setup, serve::ModelRegistry& registry) {
  const serve::TrafficConfig& traffic = setup.traffic;
  std::cout << "generating " << traffic.requests << " requests ("
            << fmt_percent(traffic.ligen_fraction) << " ligen, "
            << fmt(traffic.arrival_rate_hz, 0) << " req/s)...\n";
  const auto trace = serve::generate_trace(traffic);

  serve::ServeLoop loop(registry, setup.config);
  loop.run(trace);
  const serve::ServeStats& stats = loop.stats();

  print_banner(std::cout, "serving summary");
  std::cout << "requests          " << stats.requests << "\n"
            << "served            " << stats.served << "\n"
            << "shed              " << stats.shed << " ("
            << fmt_percent(stats.shed_rate()) << ")\n"
            << "cache hit rate    " << fmt_percent(stats.hit_rate()) << " ("
            << stats.cache_hits << " hits, " << stats.cache_misses
            << " misses)\n"
            << "batches           " << stats.batches << "\n"
            << "latency p50       " << fmt_g(stats.p50_latency_s) << " s\n"
            << "latency p99       " << fmt_g(stats.p99_latency_s) << " s\n"
            << "latency max       " << fmt_g(stats.max_latency_s) << " s\n"
            << "predicted energy  " << fmt_g(stats.predicted_energy_j)
            << " J (advised answers, served requests)\n";
  for (const auto& [app, joules] : stats.energy_by_application) {
    std::cout << "  energy[" << app << "]  " << fmt_g(joules) << " J\n";
  }
  std::cout << "simulated span    " << fmt_g(stats.sim_duration_s) << " s\n"
            << "wall time         " << fmt_g(stats.wall_s) << " s\n"
            << "throughput        " << fmt(stats.throughput_rps(), 0)
            << " req/s (wall)\n";
}

} // namespace

int main(int argc, char** argv) {
  CliParser cli("frequency_advisor",
                "recommend a Pareto-optimal core frequency for an input");
  cli.add_option("app", "cronos | ligen", "cronos");
  cli.add_option("input",
                 "target input: grid (cronos, e.g. 120x48x48) or "
                 "atoms x fragments x ligands (ligen, e.g. 89x8x2048)",
                 "120x48x48");
  cli.add_option("max-slowdown", "acceptable performance loss, fraction",
                 "0.03");
  cli.add_option("device", "v100 | mi100", "v100");
  cli.add_option("model-in",
                 "comma-separated dsem-model-v1 artifacts to load "
                 "(skips training for their (app, device) keys)",
                 "");
  cli.add_option("train-out",
                 "save the target app's trained model artifact here; a "
                 "regular file, replaced by rename once complete",
                 "");
  cli.add_option("model-kind",
                 "model family to train: ds (domain-specific) | hybrid",
                 "ds");
  cli.add_option("dataset-out",
                 "export the target app's training sweep as a "
                 "dsem-dataset-v1 document; a regular file, replaced by "
                 "rename once complete",
                 "");
  cli.add_option("dataset-stride",
                 "dataset-out: train on every Nth supported frequency", "8");
  cli.add_flag("serve", "replay a synthetic request stream instead of "
                        "answering one query");
  cli.add_option("requests", "serve: number of requests", "100000");
  cli.add_option("arrival-rate", "serve: mean arrival rate, req/s", "2000");
  cli.add_option("ligen-fraction", "serve: fraction of ligen requests",
                 "0.5");
  cli.add_option("population", "serve: distinct inputs per app", "512");
  cli.add_option("traffic-seed", "serve: trace RNG seed", "0x5EedF00d");
  cli.add_option("batch-size", "serve: max requests per dispatch", "64");
  cli.add_option("admission-bound",
                 "serve: waiting-queue bound (0 = unbounded)", "1024");
  cli.add_option("cache-capacity", "serve: LRU answer-cache capacity "
                                   "(0 = disabled)",
                 "4096");
  cli.add_option("cache-quant", "serve: cache-key feature quantization step",
                 "1.0");
  core::add_fault_cli_options(cli);
  obs::Session::add_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const obs::Session session(cli);
  const std::string app = cli.option("app");
  DSEM_ENSURE(app == "cronos" || app == "ligen", "unknown app: " + app);
  const std::string device_name = cli.option("device");
  const double max_slowdown = cli.option_double("max-slowdown");
  const sim::FaultConfig faults = core::fault_config_from_cli(cli);
  const core::RetryPolicy retry = core::retry_policy_from_cli(cli);
  const std::size_t dataset_stride = cli.option_size("dataset-stride");
  const std::optional<ServeSetup> serving =
      cli.flag("serve") ? std::optional(serve_setup(cli, session.ledger()))
                        : std::nullopt;

  sim::Device sim_dev(device_name == "mi100" ? sim::mi100() : sim::v100(),
                      sim::NoiseConfig{}, 0xAD51);
  sim_dev.set_fault_config(faults);
  synergy::Device device(sim_dev);

  core::SweepReport report;
  core::SweepOptions sweep_options;
  sweep_options.repetitions = 5;
  sweep_options.retry = retry;
  sweep_options.report = &report;

  serve::ModelRegistry registry;
  for (const std::string& path : split_paths(cli.option("model-in"))) {
    serve::ModelArtifact artifact = serve::ModelArtifact::load_file(path);
    DSEM_ENSURE(artifact.key.device == device_name,
                "artifact " + path + " was trained for device \"" +
                    artifact.key.device + "\", not \"" + device_name + "\"");
    std::cout << "loaded " << artifact.key.to_string() << " from " << path
              << "\n";
    registry.put(std::move(artifact));
  }

  const std::string model_kind = cli.option("model-kind");

  if (serving) {
    // Mixed traffic needs a model per application in the mix.
    const double ligen_fraction = cli.option_double("ligen-fraction");
    if (ligen_fraction < 1.0) {
      obtain_model(registry, "cronos", device_name, device, sweep_options,
                   report, model_kind);
    }
    if (ligen_fraction > 0.0) {
      obtain_model(registry, "ligen", device_name, device, sweep_options,
                   report, model_kind);
    }
    if (const std::string out = cli.option("train-out"); !out.empty()) {
      registry.require({app, device_name})->save_file(out);
      std::cout << "saved " << app << "/" << device_name << " model to "
                << out << "\n";
    }
    run_serve_mode(*serving, registry);
    core::print_sweep_report(std::cout, report);
    session.finish(std::cout, "frequency_advisor",
                   core::sweep_report_to_json(report));
    return 0;
  }

  if (const std::string out = cli.option("dataset-out"); !out.empty()) {
    export_dataset(out, app, device, sweep_options, dataset_stride, report);
  }

  const auto artifact = obtain_model(registry, app, device_name, device,
                                     sweep_options, report, model_kind);
  if (const std::string out = cli.option("train-out"); !out.empty()) {
    artifact->save_file(out);
    std::cout << "saved " << app << "/" << device_name << " model to " << out
              << "\n";
  }

  const auto target = parse_target(app, cli.option("input"));
  serve::AdviseRequest request;
  request.application = app;
  request.features = target->domain_features();
  request.max_slowdown = max_slowdown;
  const serve::AdviseAnswer answer =
      serve::Advisor{}.advise(*artifact, request);

  std::cout << "\ntarget " << target->name() << " on " << device.name()
            << " (policy: <= " << fmt_percent(max_slowdown)
            << " slowdown)\n";
  std::cout << "recommended core frequency: " << fmt(answer.freq_mhz, 0)
            << " MHz\n  predicted energy  " << fmt_percent(
                   answer.predicted_norm_energy - 1.0)
            << "\n  predicted runtime " << fmt_percent(
                   1.0 / std::max(answer.predicted_speedup, 1e-9) - 1.0)
            << "\n";

  const auto verify_start = std::chrono::steady_clock::now();
  const core::Measurement def =
      core::measure_default(device, *target, 5, retry, &report.retry);
  const core::Measurement at = core::measure(device, *target, answer.freq_mhz,
                                             5, retry, &report.retry);
  report.add_phase("verification", seconds_since(verify_start));
  std::cout << "verification against measurement:\n  measured energy  "
            << fmt_percent(at.energy_j / def.energy_j - 1.0)
            << "\n  measured runtime " << fmt_percent(
                   at.time_s / def.time_s - 1.0)
            << "\n\n";
  core::print_sweep_report(std::cout, report);
  session.finish(std::cout, "frequency_advisor",
                 core::sweep_report_to_json(report));
  return 0;
}
