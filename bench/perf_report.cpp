// Perf harness driver: one BENCH_<date>.json per invocation.
//
// Runs the perf_* Google Benchmark binaries (siblings of this executable,
// or --bench-dir) with JSON output, runs the fig01 characterization
// pipeline in-process with metrics enabled, and merges everything into a
// single "dsem-bench-v1" report (see bench/bench_report.hpp for the
// schema). --smoke caps each micro-benchmark at --benchmark_min_time=0.01
// so CI can afford the run; the mode is recorded in the report so
// baselines are only compared like-for-like.
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/sweep_report.hpp"
#include "obs/session.hpp"

namespace {

using namespace dsem;

std::string today() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm_buf);
  return buf;
}

std::string dir_of(const std::string& argv0) {
  const std::size_t slash = argv0.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : argv0.substr(0, slash);
}

void run_micro_benchmark(json::Value& report, const std::string& bench_dir,
                         const std::string& name, bool smoke) {
  const std::string tmp = name + ".gbench.json";
  std::string cmd = bench_dir + "/" + name + " --benchmark_out=" + tmp +
                    " --benchmark_out_format=json";
  if (smoke) {
    cmd += " --benchmark_min_time=0.01";
  }
  std::printf("[perf_report] %s\n", cmd.c_str());
  std::fflush(stdout);
  const int rc = std::system(cmd.c_str());
  DSEM_ENSURE(rc == 0, name + " failed with status " + std::to_string(rc));
  const std::size_t merged =
      benchreport::merge_google_benchmark(report, name, json::read_file(tmp));
  DSEM_ENSURE(merged > 0, name + " produced no benchmark entries");
  std::remove(tmp.c_str());
}

/// The fig01 characterization pipeline (LiGen + Cronos on the V100) as the
/// end-to-end entry: micro-benchmarks bound single launches, this bounds
/// the figure-scale sweep the paper's results hang off. Smoke mode shrinks
/// the workloads, not the code path.
double run_pipeline(bool smoke, core::SweepReport& sweep_report) {
  const auto start = std::chrono::steady_clock::now();
  bench::Rig rig;
  sim::ProfileCache cache;
  core::SweepOptions options;
  options.cache = &cache;
  options.report = &sweep_report;
  if (smoke) {
    const core::LigenWorkload ligen(256, 31, 4);
    core::characterize(rig.v100, ligen, options);
    const core::CronosWorkload cronos({12, 6, 6}, 2);
    core::characterize(rig.v100, cronos, options);
  } else {
    const core::LigenWorkload ligen(4096, 89, 8);
    core::characterize(rig.v100, ligen, options);
    const core::CronosWorkload cronos({80, 32, 32}, 10);
    core::characterize(rig.v100, cronos, options);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  sweep_report.add_phase("characterization", wall_s);
  return wall_s;
}

} // namespace

int main(int argc, char** argv) {
  using namespace dsem;
  CliParser cli("perf_report",
                "Run the perf_* micro-benchmarks plus an instrumented fig01 "
                "pipeline and merge them into one BENCH_<date>.json");
  cli.add_flag("smoke", "fast mode for CI (--benchmark_min_time=0.01, "
                        "shrunken pipeline workloads)");
  cli.add_option("out",
                 "output path (default: BENCH_<date>.json); a regular file, "
                 "replaced by rename once complete",
                 "");
  cli.add_option("bench-dir",
                 "directory holding the perf_* binaries (default: this "
                 "executable's directory)",
                 "");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = cli.flag("smoke");
  const std::string date = today();
  const std::string out =
      cli.option("out").empty() ? "BENCH_" + date + ".json" : cli.option("out");
  const std::string bench_dir = cli.option("bench-dir").empty()
                                    ? dir_of(argv[0])
                                    : cli.option("bench-dir");

  json::Value report =
      benchreport::make_report(date, smoke ? "smoke" : "full");
  for (const char* name : {"perf_sim", "perf_ml", "perf_cronos",
                           "perf_ligen", "perf_advisor", "perf_sched"}) {
    run_micro_benchmark(report, bench_dir, name, smoke);
  }

  std::printf("[perf_report] fig01 pipeline (%s)\n", smoke ? "smoke" : "full");
  std::fflush(stdout);
  metrics::set_enabled(true);
  metrics::Registry::global().clear();
  core::SweepReport sweep_report;
  const double wall_s = run_pipeline(smoke, sweep_report);
  benchreport::set_pipeline(
      report, "fig01", wall_s,
      obs::run_manifest("perf_report/fig01",
                        core::sweep_report_to_json(sweep_report)));
  metrics::set_enabled(false);

  benchreport::validate(report);
  json::write_file(out, report);
  std::printf("[perf_report] %zu entries -> %s\n",
              report.at("benchmarks").as_array().size(), out.c_str());
  return 0;
}
