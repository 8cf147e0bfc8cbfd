// Ledger inspector: drill into a "dsem-ledger-v1" attribution ledger
// (frequency_advisor --serve --ledger-out or cluster_scheduler
// --ledger-out) and answer the
// operational questions the aggregate tables cannot: where did the
// energy go, why did deadlines miss, and which model artifacts are
// drifting.
//
//   dsem_inspect LEDGER.json [--metrics RUN.json] [--top N]
//
// Sections printed:
//  - stream summaries (requests and jobs: counts, energy totals);
//  - miss-cause breakdown (obs/ledger.hpp taxonomy: shed / infeasible /
//    model_error / placement);
//  - top-N energy consumers, per application always, per record when the
//    ledger carries the full record arrays (summary-view ledgers — the
//    committed goldens — omit them; their digest still pins the bytes);
//  - per-artifact prediction-residual tables with the windowed drift
//    flag;
//  - SLO burn rates (latency objective over requests, deadline objective
//    over jobs).
//
// --metrics additionally accepts a "dsem-metrics-v1" snapshot or a
// "dsem-run-v1" manifest (--metrics-out) and prints its counters and
// gauges next to the ledger view.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "obs/ledger.hpp"
#include "obs/session.hpp"

namespace {

using namespace dsem;

double num(const json::Value& object, std::string_view key) {
  return object.at(key).as_number();
}

/// Unsigned share rendering (fmt_percent's sign reads wrong for shares).
std::string share(double fraction) {
  return fmt(fraction * 100.0, 1) + "%";
}

void print_stream_summary(const json::Value& summary) {
  const json::Value& requests = summary.at("requests");
  const json::Value& jobs = summary.at("jobs");
  Table table({"stream", "count", "completed", "dropped", "cache hits",
               "energy (J)"});
  table.add_row({"requests", fmt_g(num(requests, "count")),
                 fmt_g(num(requests, "served")), fmt_g(num(requests, "shed")),
                 fmt_g(num(requests, "cache_hits")),
                 fmt_g(num(requests, "predicted_energy_j"))});
  table.add_row({"jobs", fmt_g(num(jobs, "count")),
                 fmt_g(num(jobs, "completed")), fmt_g(num(jobs, "rejected")),
                 "", fmt_g(num(jobs, "true_energy_j"))});
  table.print(std::cout);
}

void print_miss_causes(const json::Value& summary) {
  print_banner(std::cout, "miss-cause breakdown");
  Table table({"stream", "cause", "count", "share"});
  for (const char* stream : {"requests", "jobs"}) {
    const json::Value& section = summary.at(stream);
    const double count = num(section, "count");
    for (const auto& [cause, value] : section.at("miss_causes").as_object()) {
      if (cause == "none") {
        continue;
      }
      const double n = value.as_number();
      table.add_row({stream, cause, fmt_g(n),
                     count > 0 ? share(n / count) : share(0.0)});
    }
  }
  table.print(std::cout);
}

void print_top_applications(const json::Value& summary, std::size_t top) {
  print_banner(std::cout, "top energy consumers by application");
  Table table({"stream", "application", "energy (J)", "share"});
  const auto add_stream = [&](const char* stream, const char* total_key) {
    const json::Value& section = summary.at(stream);
    const double total = num(section, total_key);
    std::vector<std::pair<std::string, double>> apps;
    for (const auto& [app, joules] :
         section.at("energy_by_application").as_object()) {
      apps.emplace_back(app, joules.as_number());
    }
    std::stable_sort(apps.begin(), apps.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    if (apps.size() > top) {
      apps.resize(top);
    }
    for (const auto& [app, joules] : apps) {
      table.add_row({stream, app, fmt_g(joules),
                     total > 0.0 ? share(joules / total)
                                 : share(0.0)});
    }
  };
  add_stream("requests", "predicted_energy_j");
  add_stream("jobs", "true_energy_j");
  table.print(std::cout);
}

/// Top-N records by energy; only possible on full ledgers (the
/// summary-view goldens drop the record arrays).
void print_top_records(const json::Value& doc, std::size_t top) {
  const json::Value* requests = doc.find("requests");
  const json::Value* jobs = doc.find("jobs");
  if (requests == nullptr && jobs == nullptr) {
    std::cout << "\n(summary-view ledger: record arrays not stored; "
                 "per-record top-" << top << " skipped)\n";
    return;
  }
  print_banner(std::cout, "top energy consumers by record");
  Table table({"id", "application", "energy (J)", "latency/turnaround (s)",
               "cause"});
  const auto add_records = [&](const json::Value* records,
                               const char* energy_key,
                               const char* latency_key) {
    if (records == nullptr) {
      return;
    }
    std::vector<const json::Value*> sorted;
    for (const json::Value& record : records->as_array()) {
      sorted.push_back(&record);
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const json::Value* a, const json::Value* b) {
                       return num(*a, energy_key) > num(*b, energy_key);
                     });
    if (sorted.size() > top) {
      sorted.resize(top);
    }
    for (const json::Value* record : sorted) {
      table.add_row({record->at("id").as_string(),
                     record->at("application").as_string(),
                     fmt_g(num(*record, energy_key)),
                     fmt_g(num(*record, latency_key)),
                     record->at("cause").as_string()});
    }
  };
  add_records(requests, "predicted_energy_j", "latency_s");
  add_records(jobs, "true_energy_j", "true_time_s");
  table.print(std::cout);
}

void print_drift(const json::Value& summary) {
  print_banner(std::cout, "per-artifact prediction residuals");
  const json::Value& artifacts = summary.at("drift");
  if (artifacts.as_array().empty()) {
    std::cout << "(no model-attributed job records in this ledger)\n";
    return;
  }
  Table table({"model", "samples", "time p50", "time p90", "energy p50",
               "energy p90", "window time q", "window energy q", "drifted"});
  for (const json::Value& artifact : artifacts.as_array()) {
    const json::Value& time = artifact.at("time_residual");
    const json::Value& energy = artifact.at("energy_residual");
    table.add_row({artifact.at("model").as_string(),
                   fmt_g(num(artifact, "samples")),
                   share(num(time, "p50")),
                   share(num(time, "p90")),
                   share(num(energy, "p50")),
                   share(num(energy, "p90")),
                   share(num(artifact, "window_time_quantile")),
                   share(num(artifact, "window_energy_quantile")),
                   artifact.at("drifted").as_bool() ? "YES" : "no"});
  }
  table.print(std::cout);
}

void print_slo(const json::Value& summary) {
  print_banner(std::cout, "SLO burn");
  Table table({"objective", "events", "violations", "budget", "total burn",
               "peak window burn", "exhausted"});
  const auto add_slo = [&](const char* stream, const char* objective) {
    const json::Value& slo = summary.at(stream).at("slo");
    table.add_row({objective, fmt_g(num(slo, "events")),
                   fmt_g(num(slo, "violations")),
                   share(num(slo, "budget")),
                   fmt(num(slo, "total_burn"), 2) + "x",
                   fmt(num(slo, "peak_burn"), 2) + "x",
                   slo.at("exhausted").as_bool() ? "YES" : "no"});
  };
  add_slo("requests", "request latency");
  add_slo("jobs", "job deadlines");
  table.print(std::cout);
}

void print_metrics(const std::string& path) {
  json::Value doc = json::read_file(path);
  // Accept either the snapshot itself or a dsem-run-v1 manifest wrapping
  // one under "metrics".
  const json::Value* snapshot = &doc;
  if (const json::Value* schema = doc.find("schema");
      schema != nullptr && schema->as_string() == obs::kRunSchema) {
    snapshot = &doc.at("metrics");
  }
  DSEM_ENSURE(snapshot->at("schema").as_string() ==
                  std::string(metrics::kMetricsSchema),
              "dsem_inspect: " + path + " is not a metrics snapshot or "
              "run manifest");
  print_banner(std::cout, "metrics snapshot (" + path + ")");
  Table table({"kind", "name", "value"});
  for (const json::Value& counter : snapshot->at("counters").as_array()) {
    table.add_row({"counter", counter.at("name").as_string(),
                   fmt_g(num(counter, "total"))});
  }
  for (const json::Value& gauge : snapshot->at("gauges").as_array()) {
    table.add_row({"gauge", gauge.at("name").as_string(),
                   fmt_g(num(gauge, "value"))});
  }
  table.print(std::cout);
}

} // namespace

int main(int argc, char** argv) {
  CliParser cli("dsem_inspect",
                "Inspect a dsem-ledger-v1 attribution ledger: energy "
                "attribution, miss causes, model drift, and SLO burn.");
  cli.add_option("metrics",
                 "also print a dsem-metrics-v1 snapshot or dsem-run-v1 "
                 "manifest from this path",
                 "");
  cli.add_option("top", "rows in the top-energy tables", "10");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  try {
    DSEM_ENSURE(cli.positional().size() == 1,
                "usage: dsem_inspect LEDGER.json [--metrics RUN.json] "
                "[--top N]");
    const json::Value doc = json::read_file(cli.positional().front());
    DSEM_ENSURE(doc.at("schema").as_string() ==
                    std::string(obs::kLedgerSchema),
                "dsem_inspect: not a dsem-ledger-v1 document");
    const std::size_t top =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, cli.option_int("top")));

    print_banner(std::cout, "ledger: " + cli.positional().front());
    std::cout << "program: " << doc.at("program").as_string() << "\n\n";
    const json::Value& summary = doc.at("summary");
    print_stream_summary(summary);
    print_miss_causes(summary);
    print_top_applications(summary, top);
    print_top_records(doc, top);
    print_drift(summary);
    print_slo(summary);
    std::cout << "\nrecords digest: "
              << summary.at("records_digest").as_string() << "\n";

    const std::string metrics_path = cli.option("metrics");
    if (!metrics_path.empty()) {
      print_metrics(metrics_path);
    }
  } catch (const std::exception& error) {
    std::cerr << "dsem_inspect: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
