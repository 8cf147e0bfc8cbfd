// Regression gate over two BENCH_*.json perf reports.
//
// perf_compare <baseline> <current> diffs every shared benchmark entry on
// real time and exits 1 when any entry regressed beyond --tolerance
// (fractional; 0.25 flags >25 % slower). --warn-only reports the same
// analysis but always exits 0 — the CI starting posture until baselines
// from dedicated hardware exist. --strict-prefix <name/> carves out a
// strict zone inside --warn-only: regressions whose name starts with the
// prefix fail the gate even under --warn-only, so curated benchmarks
// (perf_ml/) hard-fail while noisier suites keep warning.
#include <cstdio>
#include <iostream>

#include "bench_report.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  using namespace dsem;
  CliParser cli("perf_compare",
                "Compare two BENCH_*.json files: perf_compare <baseline> "
                "<current>");
  cli.add_option("tolerance",
                 "fractional real-time slowdown tolerated before flagging",
                 "0.25");
  cli.add_option("min-time-ns",
                 "ignore entries with baseline real time below this", "100");
  cli.add_option("strict-prefix",
                 "benchmark name prefix whose regressions fail even under "
                 "--warn-only (e.g. perf_ml/)",
                 "");
  cli.add_flag("warn-only", "report regressions but exit 0");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  if (cli.positional().size() != 2) {
    cli.print_usage(std::cerr);
    std::fprintf(stderr, "expected exactly two positional arguments\n");
    return 2;
  }

  benchreport::CompareOptions options;
  options.tolerance = cli.option_double("tolerance");
  options.min_time_ns = cli.option_double("min-time-ns");
  const std::string strict_prefix = cli.option("strict-prefix");

  const json::Value baseline = json::read_file(cli.positional()[0]);
  const json::Value current = json::read_file(cli.positional()[1]);
  if (baseline.at("mode").as_string() != current.at("mode").as_string()) {
    std::fprintf(stderr,
                 "warning: comparing different modes (%s vs %s); timings are "
                 "not like-for-like\n",
                 baseline.at("mode").as_string().c_str(),
                 current.at("mode").as_string().c_str());
  }

  const benchreport::CompareResult result =
      benchreport::compare(baseline, current, options);
  benchreport::print_compare(std::cout, result, options);

  const std::vector<benchreport::Delta> strict =
      benchreport::match_prefix(result.regressions, strict_prefix);
  if (!strict.empty()) {
    std::cout << "strict zone '" << strict_prefix << "': " << strict.size()
              << " regression(s) — failing regardless of --warn-only\n";
    return 1;
  }
  if (!result.ok() && cli.flag("warn-only")) {
    std::cout << "(--warn-only: exiting 0 despite regressions)\n";
    return 0;
  }
  return result.ok() ? 0 : 1;
}
