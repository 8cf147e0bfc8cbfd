// dsem_bench: the repository benchmark, one workload per process.
//
//   dsem_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//              [--smoke] [--work-dir <dir>]
//
// A run trains its set-up several times (setup_s is the median), runs
// rounds of the workload until --seconds have passed, and checks every
// round's outputs. It prints each metric by name with its unit, the
// operations attempted and failed, and the output digest; its last line
// is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// An untraced run reports the end-to-end metrics. A --trace 1 run repeats
// the workload with spans and reports the per-layer metrics, writing the
// spans as Chrome trace JSON into --work-dir. README.md has the
// workloads, the metrics and how their bounds were measured.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <span>
#include <thread>

#include "bench.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"

namespace dsem_bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  const char* name;
  const char* unit;
};

// Names and units as BENCHMARK.json lists them.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_s", "s"},
    {"peak_rss_mb", "MB"},
    {"quality_ratio", "ratio"},
};

/// Layers of the traced round, each reported as its share of the round.
constexpr const char* kRoundLayers[] = {
    "core.sweep", "core.fit_eval", "serve.loop",
    "serve.reload", "sched.run",  "obs.export",
};

constexpr Metric kPerLayer[] = {
    {"share.core.sweep", "fraction"},
    {"share.core.fit_eval", "fraction"},
    {"share.serve.loop", "fraction"},
    {"share.serve.reload", "fraction"},
    {"share.sched.run", "fraction"},
    {"share.obs.export", "fraction"},
    {"share.unattributed", "fraction"},
    {"trace.overhead", "fraction"},
    {"sim.ref_run_us", "us"},
    {"sim.replica_run_us", "us"},
    {"sim.launches", "count"},
    {"sim.profile_cache_hit_rate", "fraction"},
    {"sweep.grid_points", "count"},
    {"core.ds_train_s", "s"},
    {"core.ds_predict_us", "us"},
    {"core.ds_predict_strided_us", "us"},
    {"ml.fit_rows", "count"},
    {"json.dump_mb_per_s", "MB/s"},
    {"json.parse_mb_per_s", "MB/s"},
    {"serve.cache_key_ns", "ns"},
    {"serve.lru_get_ns", "ns"},
    {"serve.registry_require_ns", "ns"},
    {"serve.pick_us", "us"},
    {"serve.advise_us", "us"},
    {"serve.advise_batch_us_per_request", "us"},
    {"serve.artifact_save_s", "s"},
    {"serve.artifact_load_s", "s"},
    {"serve.hit_rate", "fraction"},
    {"serve.misses", "count"},
    {"serve.mean_batch_size", "count"},
    {"serve.shed_rate", "fraction"},
    {"serve.cache_invalidations", "count"},
    {"sched.pick_ns", "ns"},
    {"sched.infeasible", "count"},
    {"sched.deadline_misses", "count"},
    {"obs.ledger_add_ns", "ns"},
    {"obs.ledger_summary_us_per_record", "us"},
    {"obs.ledger_write_us_per_record", "us"},
    {"obs.ledger_bytes", "bytes"},
    {"pool.tasks", "count"},
    {"pool.steals", "count"},
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t counter_total(const dsem::metrics::Snapshot& snapshot,
                            std::string_view name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.total;
    }
  }
  return 0;
}

/// Rounds run so far and how their checks went.
struct Tally {
  std::vector<double> walls;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool have_first = false;
  RoundResult first;

  /// A round fails as a whole: when a check fails or its outputs differ
  /// from the first round's, all its operations count as failed.
  void add(const RoundResult& round, double wall_s) {
    walls.push_back(wall_s);
    attempted += round.ops;
    const bool same = !have_first || (round.digest == first.digest &&
                                      round.counts == first.counts);
    if (round.failed_checks > 0 || !same) {
      failed += round.ops;
    }
    if (!have_first) {
      first = round;
      have_first = true;
    }
  }
};

void run_rounds(Workload& workload, double budget_s, Tally& tally,
                RoundResult& last) {
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    workload.round(nullptr);
    const double wall_s = seconds_since(t0);
    last = workload.check();
    tally.add(last, wall_s);
  } while (seconds_since(start) < budget_s);
  std::printf("rounds %zu, wall s:", tally.walls.size());
  for (const double wall : tally.walls) {
    std::printf(" %.4f", wall);
  }
  std::printf("\n");
}

/// Self time and count per span name, as the traced run prints them.
void print_breakdown(const SpanRecorder& spans, double round_s) {
  struct Row {
    std::string layer;
    std::size_t count = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans.spans()) {
    Row& row = rows[span.name];
    row.layer = span.layer;
    ++row.count;
    row.self_s += span.self_seconds();
  }
  std::printf("span self times (traced round %.6f s, then the replay):\n",
              round_s);
  for (const auto& [name, row] : rows) {
    std::printf("  %-26s %-15s %8zu spans %12.6f s self %12.3f us each\n",
                name.c_str(), row.layer.c_str(), row.count, row.self_s,
                row.self_s * 1e6 / static_cast<double>(row.count));
  }
}

void print_result(const Options& options, std::span<const Metric> specs,
                  Values values, std::uint64_t attempted,
                  std::uint64_t failed, std::uint64_t digest) {
  bool finite = true;
  for (const Metric& metric : specs) {
    double& v = values[metric.name];
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    std::printf("metric %-36s %.17g %s\n", metric.name, v, metric.unit);
  }
  std::printf("workload %s seed %llu threads %zu\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              dsem::ThreadPool::global().thread_count());
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("digest %s\n", hex(digest).c_str());

  const bool correct = failed == 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& metric : specs) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                metric.name, values[metric.name], metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(const Options& options) {
  std::filesystem::create_directories(options.work_dir);

  // Set-up: train the artifacts and build the inputs, several times so
  // setup_s is a median; the last set-up is the one the rounds use.
  const int setups = options.smoke ? 2 : 7;
  std::vector<double> setup_s;
  std::uint64_t failed_checks = 0;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < setups; ++k) {
    workload.reset();
    const std::uint64_t previous = setup ? setup->digest : 0;
    setup.reset();
    const auto t0 = Clock::now();
    setup = train_setup(options);
    workload = make_workload(options, *setup);
    setup_s.push_back(seconds_since(t0));
    if (k > 0 && setup->digest != previous) {
      ++failed_checks;
    }
  }
  workload->warm_up();

  Tally tally;
  RoundResult last;
  Values values;
  if (!options.trace) {
    run_rounds(*workload, options.seconds, tally, last);
    const std::uint64_t before = last.failed_checks;
    workload->finish(last);
    failed_checks += last.failed_checks - before;
    values["setup_s"] = dsem::stats::median(setup_s);
    values["round_s"] = dsem::stats::median(tally.walls);
    values["peak_rss_mb"] = peak_rss_mb();
    values["quality_ratio"] = last.quality_ratio;
    print_result(options, kEndToEnd, values, tally.attempted,
                 tally.failed + failed_checks, tally.first.digest);
    return 0;
  }

  // Traced run: untraced rounds for the overhead baseline, then one round
  // under spans with the library's metrics counters on, then the replay.
  run_rounds(*workload, options.seconds / 2.0, tally, last);
  const double untraced_s = dsem::stats::median(tally.walls);
  SpanRecorder spans;
  dsem::metrics::Registry::global().clear();
  dsem::metrics::set_enabled(true);
  const auto t0 = Clock::now();
  workload->round(&spans);
  const double traced_s = seconds_since(t0);
  dsem::metrics::set_enabled(false);
  ReplayInputs replay = workload->replay_inputs();
  const RoundResult traced = workload->check();
  const dsem::metrics::Snapshot snapshot =
      dsem::metrics::Registry::global().snapshot();
  tally.add(traced, traced_s);

  double attributed = 0.0;
  const auto by_layer = spans.self_seconds_by_layer();
  for (const char* layer : kRoundLayers) {
    const auto it = by_layer.find(layer);
    const double share = it == by_layer.end() ? 0.0 : it->second / traced_s;
    values[std::string("share.") + layer] = share;
    attributed += share;
  }
  values["share.unattributed"] = 1.0 - attributed;
  values["trace.overhead"] = traced_s / untraced_s - 1.0;
  for (const auto& [name, value] : traced.counts) {
    values[name] = value;
  }
  const double cache_hits =
      static_cast<double>(counter_total(snapshot, "cache.hits"));
  const double cache_misses =
      static_cast<double>(counter_total(snapshot, "cache.misses"));
  values["sim.launches"] =
      static_cast<double>(counter_total(snapshot, "sim.launches"));
  values["sim.profile_cache_hit_rate"] =
      cache_hits + cache_misses > 0.0
          ? cache_hits / (cache_hits + cache_misses)
          : 0.0;
  values["sweep.grid_points"] =
      static_cast<double>(counter_total(snapshot, "sweep.grid_points"));
  values["pool.tasks"] =
      static_cast<double>(counter_total(snapshot, "pool.tasks"));
  values["pool.steals"] =
      static_cast<double>(counter_total(snapshot, "pool.steals"));

  for (const auto& [name, value] :
       replay_and_probe(options, *setup, std::move(replay), spans,
                        failed_checks)) {
    values[name] = value;
  }
  const std::string spans_path = options.work_dir + "/spans-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  spans.write_chrome_json(spans_path);
  print_breakdown(spans, traced_s);
  std::printf("spans %zu written to %s\n", spans.spans().size(),
              spans_path.c_str());
  print_result(options, kPerLayer, values, tally.attempted,
               tally.failed + failed_checks, traced.digest);
  return 0;
}

} // namespace
} // namespace dsem_bench

int main(int argc, char** argv) {
  using namespace dsem_bench;
  try {
    dsem::CliParser cli("dsem_bench",
                        "Runs one benchmark workload and prints its metrics.");
    cli.add_option("workload", "paper_fig13 | serve_mixed | serve_burst | "
                               "serve_hot | serve_churn | sched_stream",
                   "");
    cli.add_option("seed", "seed the inputs are drawn from", "1");
    cli.add_option("seconds", "how long the rounds run", "8");
    cli.add_option("trace", "1 = traced run (per-layer metrics)", "0");
    cli.add_flag("smoke", "same code path at tiny sizes");
    cli.add_option("work-dir", "directory for the run's files",
                   ".bench_build/run");
    if (!cli.parse(argc, argv)) {
      return 0;
    }
    Options options;
    options.workload = cli.option("workload");
    options.seed = static_cast<std::uint64_t>(cli.option_int("seed"));
    options.seconds = cli.option_double("seconds");
    const std::int64_t trace = cli.option_int("trace");
    DSEM_ENSURE(trace == 0 || trace == 1, "--trace must be 0 or 1");
    options.trace = trace == 1;
    options.smoke = cli.flag("smoke");
    options.work_dir = cli.option("work-dir");

    // The library's own observability switches would add work to every
    // round; measure only with them off.
    for (const char* var : {"DSEM_TRACE", "DSEM_METRICS", "DSEM_LEDGER"}) {
      DSEM_ENSURE(std::getenv(var) == nullptr,
                  std::string("unset ") + var + " before measuring");
    }
    if (std::getenv("DSEM_THREADS") == nullptr) {
      const unsigned threads =
          std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
      setenv("DSEM_THREADS", std::to_string(threads).c_str(), 1);
    }
    return run(options);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "dsem_bench: %s\n", e.what());
    return 1;
  }
}
