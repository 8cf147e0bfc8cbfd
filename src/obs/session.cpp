#include "obs/session.hpp"

#include <ostream>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "obs/ledger.hpp"

namespace dsem::obs {

json::Value run_manifest(const std::string& program,
                         json::Value sweep_report) {
  auto manifest = json::Value::object();
  manifest.set("schema", kRunSchema);
  manifest.set("program", program);
  manifest.set("sweep_report", std::move(sweep_report));
  manifest.set("metrics", metrics::Registry::global().snapshot().to_json());
  return manifest;
}

void Session::add_cli_options(CliParser& cli) {
  cli.add_option("trace-out",
                 "write a Chrome trace-event JSON of the run here; a "
                 "regular file, replaced by rename once complete",
                 "");
  cli.add_option(
      "metrics-out",
      "write a dsem-run-v1 JSON manifest (sweep report + metrics) here; "
      "a regular file, replaced by rename once complete",
      "");
  cli.add_option(
      "ledger-out",
      "write a dsem-ledger-v1 attribution ledger (per-request / per-job "
      "records) here; a regular file, replaced by rename once complete",
      "");
}

Session::Session(const CliParser& cli)
    : trace_out_(cli.option("trace-out")),
      metrics_out_(cli.option("metrics-out")),
      ledger_out_(cli.option("ledger-out")) {
  if (!trace_out_.empty()) {
    trace::set_enabled(true);
  }
  if (!metrics_out_.empty()) {
    metrics::set_enabled(true);
  }
  if (!ledger_out_.empty()) {
    obs::set_enabled(true);
  }
}

void Session::finish(std::ostream& os, const std::string& program,
                     json::Value sweep_report) const {
  if (!trace_out_.empty()) {
    json::write_file(trace_out_, [](json::Writer& writer) {
      trace::Tracer::global().write_chrome_trace(writer);
    });
    os << "\ntrace written to " << trace_out_ << "\n";
    trace::Tracer::global().write_summary(os);
  }
  if (!metrics_out_.empty()) {
    json::write_file(metrics_out_,
                     run_manifest(program, std::move(sweep_report)));
    os << "\nrun manifest written to " << metrics_out_ << "\n";
    metrics::Registry::global().snapshot().write_table(os);
  }
  if (!ledger_out_.empty()) {
    Ledger& ledger = Ledger::global();
    ledger.config().program = program;
    ledger.write_file(ledger_out_);
    os << "\nledger written to " << ledger_out_ << " ("
       << ledger.requests().size() << " requests, " << ledger.jobs().size()
       << " jobs)\n";
  }
}

} // namespace dsem::obs
