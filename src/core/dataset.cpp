#include "core/dataset.hpp"

#include "common/error.hpp"

namespace dsem::core {

std::vector<std::size_t> Dataset::rows_of_group(int group) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == group) {
      out.push_back(i);
    }
  }
  return out;
}

bool Dataset::group_ok(int group) const {
  DSEM_ENSURE(group >= 0 && static_cast<std::size_t>(group) < num_groups(),
              "group id out of range");
  const Measurement& base = group_default[static_cast<std::size_t>(group)];
  return base.time_s > 0.0 && base.energy_j > 0.0 &&
         !rows_of_group(group).empty();
}

int Dataset::group_of(const std::string& name) const {
  for (std::size_t g = 0; g < group_names.size(); ++g) {
    if (group_names[g] == name) {
      return static_cast<int>(g);
    }
  }
  DSEM_ENSURE(false, "no dataset group named " + name);
  return -1;
}

Dataset build_dataset(synergy::Device& device,
                      std::span<const std::unique_ptr<Workload>> workloads,
                      const SweepOptions& options,
                      std::span<const double> freqs) {
  DSEM_ENSURE(!workloads.empty(), "build_dataset: no workloads");
  std::vector<double> all_freqs;
  if (freqs.empty()) {
    all_freqs = device.supported_frequencies();
    freqs = all_freqs;
  }

  const std::size_t feature_width = workloads.front()->domain_features().size();
  Dataset ds;

  const std::vector<FrequencySweep> sweeps =
      sweep_workloads(device, workloads, freqs, options);

  // Failed grid points contribute no rows; size the matrix to what
  // actually survived. A group whose baseline failed keeps its id slot
  // (ids always equal workload indices) but gets the {0, 0} placeholder
  // baseline and zero rows — see Dataset::group_ok.
  std::size_t usable_rows = 0;
  for (const FrequencySweep& sweep : sweeps) {
    if (!sweep.baseline_ok) {
      continue;
    }
    for (const SweepPoint& sp : sweep.points) {
      usable_rows += sp.ok ? 1 : 0;
    }
  }
  ds.x = ml::Matrix(usable_rows, feature_width + 1);

  std::size_t row = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = *workloads[w];
    const std::vector<double> features = workload.domain_features();
    DSEM_ENSURE(features.size() == feature_width,
                "workloads disagree on feature width");
    const FrequencySweep& sweep = sweeps[w];

    ds.group_names.push_back(workload.name());
    ds.default_freq_mhz.push_back(sweep.default_freq_mhz);
    ds.group_default.push_back(sweep.baseline_ok ? sweep.baseline
                                                 : Measurement{});
    if (!sweep.baseline_ok) {
      continue;
    }

    for (const SweepPoint& sp : sweep.points) {
      if (!sp.ok) {
        continue;
      }
      auto dst = ds.x.row(row);
      std::copy(features.begin(), features.end(), dst.begin());
      dst[feature_width] = sp.freq_mhz;
      ds.time_s.push_back(sp.m.time_s);
      ds.energy_j.push_back(sp.m.energy_j);
      ds.groups.push_back(static_cast<int>(w));
      ++row;
    }
  }
  DSEM_ENSURE(row == usable_rows, "dataset row accounting mismatch");
  return ds;
}

Dataset build_dataset(synergy::Device& device,
                      std::span<const std::unique_ptr<Workload>> workloads,
                      int repetitions, std::span<const double> freqs) {
  sim::ProfileCache cache;
  SweepOptions options;
  options.repetitions = repetitions;
  options.cache = &cache;
  return build_dataset(device, workloads, options, freqs);
}

json::Value dataset_to_json(const Dataset& dataset) {
  DSEM_ENSURE(dataset.x.rows() == dataset.rows() &&
                  dataset.groups.size() == dataset.rows() &&
                  dataset.energy_j.size() == dataset.rows(),
              "dataset_to_json: inconsistent row counts");
  DSEM_ENSURE(dataset.group_default.size() == dataset.num_groups() &&
                  dataset.default_freq_mhz.size() == dataset.num_groups(),
              "dataset_to_json: inconsistent group metadata");

  auto out = json::Value::object();
  out.set("schema", kDatasetSchema);
  out.set("cols", static_cast<double>(dataset.x.cols()));
  auto x = json::Value::array();
  for (std::size_t r = 0; r < dataset.x.rows(); ++r) {
    auto row = json::Value::array();
    for (const double v : dataset.x.row(r)) {
      row.push_back(v);
    }
    x.push_back(std::move(row));
  }
  out.set("x", std::move(x));
  const auto doubles = [](std::span<const double> values) {
    auto arr = json::Value::array();
    for (const double v : values) {
      arr.push_back(v);
    }
    return arr;
  };
  out.set("time_s", doubles(dataset.time_s));
  out.set("energy_j", doubles(dataset.energy_j));
  auto groups = json::Value::array();
  for (const int g : dataset.groups) {
    groups.push_back(static_cast<double>(g));
  }
  out.set("groups", std::move(groups));
  auto names = json::Value::array();
  for (const std::string& name : dataset.group_names) {
    names.push_back(name);
  }
  out.set("group_names", std::move(names));
  std::vector<double> base_t;
  std::vector<double> base_e;
  for (const Measurement& m : dataset.group_default) {
    base_t.push_back(m.time_s);
    base_e.push_back(m.energy_j);
  }
  out.set("group_default_time_s", doubles(base_t));
  out.set("group_default_energy_j", doubles(base_e));
  out.set("default_freq_mhz", doubles(dataset.default_freq_mhz));
  return out;
}

Dataset dataset_from_json(const json::Value& value) {
  DSEM_ENSURE(value.is_object(), "dataset: not a JSON object");
  const json::Value* schema = value.find("schema");
  DSEM_ENSURE(schema != nullptr && schema->is_string(),
              "dataset: missing schema tag");
  DSEM_ENSURE(schema->as_string() == kDatasetSchema,
              "dataset: unsupported schema \"" + schema->as_string() +
                  "\" (this build reads " + kDatasetSchema + ")");

  Dataset out;
  const double cols_d = value.at("cols").as_number();
  DSEM_ENSURE(cols_d >= 2.0, "dataset: needs at least one feature + freq");
  const auto cols = static_cast<std::size_t>(cols_d);
  const auto& x = value.at("x").as_array();
  out.x = ml::Matrix(x.size(), cols);
  for (std::size_t r = 0; r < x.size(); ++r) {
    const auto& row = x[r].as_array();
    DSEM_ENSURE(row.size() == cols, "dataset: ragged feature matrix");
    auto dst = out.x.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c] = row[c].as_number();
    }
  }
  const auto doubles = [&](const char* key) {
    std::vector<double> values;
    for (const json::Value& v : value.at(key).as_array()) {
      values.push_back(v.as_number());
    }
    return values;
  };
  out.time_s = doubles("time_s");
  out.energy_j = doubles("energy_j");
  for (const json::Value& g : value.at("groups").as_array()) {
    out.groups.push_back(static_cast<int>(g.as_number()));
  }
  for (const json::Value& name : value.at("group_names").as_array()) {
    out.group_names.push_back(name.as_string());
  }
  const std::vector<double> base_t = doubles("group_default_time_s");
  const std::vector<double> base_e = doubles("group_default_energy_j");
  DSEM_ENSURE(base_t.size() == base_e.size(),
              "dataset: mismatched group baselines");
  for (std::size_t g = 0; g < base_t.size(); ++g) {
    out.group_default.push_back({base_t[g], base_e[g]});
  }
  out.default_freq_mhz = doubles("default_freq_mhz");

  DSEM_ENSURE(out.time_s.size() == out.x.rows() &&
                  out.energy_j.size() == out.x.rows() &&
                  out.groups.size() == out.x.rows(),
              "dataset: inconsistent row counts");
  DSEM_ENSURE(out.group_default.size() == out.num_groups() &&
                  out.default_freq_mhz.size() == out.num_groups(),
              "dataset: inconsistent group metadata");
  for (const int g : out.groups) {
    DSEM_ENSURE(g >= 0 && static_cast<std::size_t>(g) < out.num_groups(),
                "dataset: row group id out of range");
  }
  return out;
}

void save_dataset(const Dataset& dataset, const std::string& path) {
  json::write_file(path, dataset_to_json(dataset));
}

Dataset load_dataset(const std::string& path) {
  return dataset_from_json(json::read_file(path));
}

} // namespace dsem::core
