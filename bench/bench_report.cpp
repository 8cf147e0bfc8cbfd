#include "bench_report.hpp"

#include <map>
#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace dsem::benchreport {

json::Value make_report(const std::string& date, const std::string& mode) {
  auto report = json::Value::object();
  report.set("schema", kBenchSchema);
  report.set("date", date);
  report.set("mode", mode);
  report.set("benchmarks", json::Value::array());
  report.set("pipeline", json::Value());
  return report;
}

void validate(const json::Value& report) {
  DSEM_ENSURE(report.is_object(), "bench report: not a JSON object");
  DSEM_ENSURE(report.at("schema").as_string() == kBenchSchema,
              "bench report: schema is not " + std::string(kBenchSchema));
  report.at("date").as_string();
  report.at("mode").as_string();
  for (const json::Value& entry : report.at("benchmarks").as_array()) {
    DSEM_ENSURE(entry.is_object(), "bench report: entry is not an object");
    entry.at("name").as_string();
    entry.at("real_time_ns").as_number();
    entry.at("cpu_time_ns").as_number();
    entry.at("iterations").as_number();
  }
  const json::Value& pipeline = report.at("pipeline");
  if (!pipeline.is_null()) {
    pipeline.at("name").as_string();
    pipeline.at("wall_s").as_number();
  }
}

void add_entry(json::Value& report, const std::string& name,
               double real_time_ns, double cpu_time_ns, double iterations) {
  json::Value& benchmarks = report.at("benchmarks");
  for (const json::Value& existing : benchmarks.as_array()) {
    DSEM_ENSURE(existing.at("name").as_string() != name,
                "bench report: duplicate benchmark entry: " + name);
  }
  auto entry = json::Value::object();
  entry.set("name", name);
  entry.set("real_time_ns", real_time_ns);
  entry.set("cpu_time_ns", cpu_time_ns);
  entry.set("iterations", iterations);
  benchmarks.push_back(std::move(entry));
}

namespace {

double time_unit_to_ns(const std::string& unit) {
  if (unit == "ns") {
    return 1.0;
  }
  if (unit == "us") {
    return 1e3;
  }
  if (unit == "ms") {
    return 1e6;
  }
  if (unit == "s") {
    return 1e9;
  }
  throw contract_error("bench report: unknown Google Benchmark time_unit: " +
                       unit);
}

} // namespace

std::size_t merge_google_benchmark(json::Value& report,
                                   const std::string& binary,
                                   const json::Value& gbench) {
  std::size_t merged = 0;
  for (const json::Value& bm : gbench.at("benchmarks").as_array()) {
    // Aggregate rows (mean/median/stddev from --benchmark_repetitions)
    // duplicate the iteration rows; keep only the raw measurements.
    if (const json::Value* run_type = bm.find("run_type");
        run_type != nullptr && run_type->as_string() != "iteration") {
      continue;
    }
    const double to_ns = time_unit_to_ns(bm.at("time_unit").as_string());
    const std::string name = binary + "/" + bm.at("name").as_string();
    const double iterations = bm.at("iterations").as_number();
    add_entry(report, name, bm.at("real_time").as_number() * to_ns,
              bm.at("cpu_time").as_number() * to_ns, iterations);
    ++merged;
    // Lift *_ns user counters (already in nanoseconds by convention) into
    // entries of their own so the compare gate tracks them individually.
    for (const auto& [field, value] : bm.as_object()) {
      if (field.size() > 3 && field.ends_with("_ns") && value.is_number()) {
        add_entry(report, name + ":" + field, value.as_number(),
                  value.as_number(), iterations);
        ++merged;
      }
    }
  }
  return merged;
}

void set_pipeline(json::Value& report, const std::string& name, double wall_s,
                  json::Value run_manifest) {
  auto pipeline = json::Value::object();
  pipeline.set("name", name);
  pipeline.set("wall_s", wall_s);
  pipeline.set("run_manifest", std::move(run_manifest));
  report.set("pipeline", std::move(pipeline));
  add_entry(report, "pipeline/" + name, wall_s * 1e9, wall_s * 1e9, 1.0);
}

CompareResult compare(const json::Value& baseline, const json::Value& current,
                      const CompareOptions& options) {
  validate(baseline);
  validate(current);
  // std::map keys both sides by name: deltas and the missing/added lists
  // come out name-sorted regardless of entry order in the files.
  const auto index = [](const json::Value& report) {
    std::map<std::string, double> times;
    for (const json::Value& entry : report.at("benchmarks").as_array()) {
      times[entry.at("name").as_string()] =
          entry.at("real_time_ns").as_number();
    }
    return times;
  };
  const std::map<std::string, double> base = index(baseline);
  const std::map<std::string, double> cur = index(current);

  CompareResult result;
  for (const auto& [name, base_ns] : base) {
    const auto it = cur.find(name);
    if (it == cur.end()) {
      result.missing.push_back(name);
      continue;
    }
    if (base_ns < options.min_time_ns) {
      continue;
    }
    const double ratio = it->second / base_ns;
    const Delta delta{name, base_ns, it->second, ratio};
    if (ratio > 1.0 + options.tolerance) {
      result.regressions.push_back(delta);
    } else if (ratio < 1.0 - options.tolerance) {
      result.improvements.push_back(delta);
    }
  }
  for (const auto& [name, _] : cur) {
    if (base.find(name) == base.end()) {
      result.added.push_back(name);
    }
  }
  return result;
}

std::vector<Delta> match_prefix(const std::vector<Delta>& deltas,
                                const std::string& prefix) {
  std::vector<Delta> out;
  if (prefix.empty()) {
    return out;
  }
  for (const Delta& d : deltas) {
    if (d.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(d);
    }
  }
  return out;
}

void print_compare(std::ostream& os, const CompareResult& result,
                   const CompareOptions& options) {
  os << "perf compare (tolerance " << fmt(options.tolerance * 100.0, 0)
     << "%, entries under " << fmt(options.min_time_ns, 0)
     << " ns ignored)\n";
  if (result.regressions.empty() && result.improvements.empty()) {
    os << "no changes beyond tolerance\n";
  } else {
    Table table({"status", "name", "baseline_ns", "current_ns", "ratio"});
    for (const Delta& d : result.regressions) {
      table.add_row({"REGRESSED", d.name, fmt_g(d.baseline_ns),
                     fmt_g(d.current_ns), fmt(d.ratio, 3)});
    }
    for (const Delta& d : result.improvements) {
      table.add_row({"improved", d.name, fmt_g(d.baseline_ns),
                     fmt_g(d.current_ns), fmt(d.ratio, 3)});
    }
    table.print(os);
  }
  for (const std::string& name : result.missing) {
    os << "missing from current: " << name << "\n";
  }
  for (const std::string& name : result.added) {
    os << "new in current: " << name << "\n";
  }
  os << (result.ok() ? "PASS" : "FAIL") << ": " << result.regressions.size()
     << " regression(s), " << result.improvements.size()
     << " improvement(s), " << result.missing.size() << " missing, "
     << result.added.size() << " added\n";
}

} // namespace dsem::benchreport
