// One observability session per driver run (DESIGN.md §7.7, §7.8, §7.14).
//
// A run has three optional sinks: the Chrome trace (common/trace), the
// metrics registry (common/metrics) and the attribution ledger
// (obs/ledger). Each has exactly one switch, a CLI flag: --trace-out,
// --metrics-out, --ledger-out. Session is the only code that knows all
// three: it registers the flags, turns on the sinks whose flag is set, and
// at the end of the run writes each requested file followed by its stdout
// footer. A sink whose flag is empty stays off, so the instrumented hot
// paths keep their one-relaxed-load disabled branch.
//
// Trace and metrics are process-global, because every layer reports into
// them. The ledger is not: the session owns the run's Ledger, and the
// driver hands it to the one run it should record through
// ServeConfig::ledger or SchedConfig::ledger.
//
//   obs::Session::add_cli_options(cli);
//   if (!cli.parse(argc, argv)) return 0;
//   const obs::Session session(cli);
//   config.ledger = session.ledger();
//   ... run ...
//   session.finish(std::cout, "program", core::sweep_report_to_json(report));
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "obs/ledger.hpp"

namespace dsem {
class CliParser;
} // namespace dsem

namespace dsem::obs {

/// Schema tag of the per-invocation run manifest written via
/// --metrics-out (and embedded in BENCH_*.json pipeline entries).
inline constexpr const char* kRunSchema = "dsem-run-v1";

/// Builds the "dsem-run-v1" manifest: the already-serialized sweep report
/// (null for drivers that do not keep one) plus the full metrics snapshot.
json::Value run_manifest(const std::string& program, json::Value sweep_report);

class Session {
public:
  /// Registers --trace-out (Chrome trace-event JSON), --metrics-out
  /// ("dsem-run-v1" manifest) and --ledger-out ("dsem-ledger-v1"
  /// attribution ledger) on an example or bench CLI.
  static void add_cli_options(CliParser& cli);

  /// Reads the parsed flags and turns on the sinks they name.
  explicit Session(const CliParser& cli);

  /// The run's ledger when --ledger-out is set, else null. finish()
  /// writes what was recorded into it.
  Ledger* ledger() const noexcept { return ledger_.get(); }

  /// Writes what the flags requested, in this order: the Chrome trace and
  /// its summary table, the run manifest (embedding `sweep_report`) and
  /// the metrics table, the ledger and its record counts. Writes and
  /// prints nothing for flags left empty.
  void finish(std::ostream& os, const std::string& program,
              json::Value sweep_report = {}) const;

private:
  std::string trace_out_;
  std::string metrics_out_;
  std::string ledger_out_;
  std::unique_ptr<Ledger> ledger_;
};

} // namespace dsem::obs
