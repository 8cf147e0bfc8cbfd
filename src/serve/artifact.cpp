#include "serve/artifact.hpp"

#include <optional>

#include "common/error.hpp"
#include "core/kernel_features.hpp"
#include "ml/serialize.hpp"
#include "sim/device_spec.hpp"

namespace dsem::serve {

namespace {

const char* kind_name(ModelKind kind) {
  switch (kind) {
  case ModelKind::kDomainSpecific:
    return "domain-specific";
  case ModelKind::kHybrid:
    return "hybrid";
  }
  throw contract_error("model artifact: invalid kind");
}

// The advisor picks one of these clocks and reports it in MHz, and the
// scheduler strides through them expecting ascent: a schedule is
// non-empty, positive and strictly ascending.
void check_schedule(const std::vector<double>& freqs_mhz) {
  DSEM_ENSURE(!freqs_mhz.empty(), "model artifact: empty frequency schedule");
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    DSEM_ENSURE(freqs_mhz[i] > 0.0,
                "model artifact: non-positive frequency in the schedule");
    DSEM_ENSURE(i == 0 || freqs_mhz[i] > freqs_mhz[i - 1],
                "model artifact: frequency schedule is not strictly "
                "ascending");
  }
}

} // namespace

void ModelArtifact::validate() const {
  DSEM_ENSURE(ds != nullptr && ds->trained(),
              std::string("artifact: no trained ") + kind_name(kind) +
                  " model");
}

core::Prediction
ModelArtifact::predict(std::span<const double> features,
                       std::span<const double> freqs) const {
  DSEM_ENSURE(ds != nullptr,
              "artifact: " + key.to_string() + " has no frequency model");
  if (kind == ModelKind::kDomainSpecific) {
    return ds->predict(features, freqs, default_freq_mhz);
  }
  const auto workload =
      core::workload_from_features(key.application, features);
  return ds->predict(
      core::fused_feature_vector(*workload, sim::preset_by_name(key.device),
                                 default_freq_mhz),
      freqs, default_freq_mhz);
}

void ModelArtifact::write(json::Writer& out) const {
  validate();
  DSEM_ENSURE(!key.application.empty() && !key.device.empty(),
              "artifact key must name an application and a device");
  check_schedule(freqs_mhz);
  DSEM_ENSURE(default_freq_mhz > 0.0, "artifact without a default clock");

  out.begin_object();
  out.key("schema").value(kModelSchema);
  out.key("kind").value(kind_name(kind));
  out.key("application").value(key.application);
  out.key("device").value(key.device);
  out.key("origin").value(origin);
  out.key("feature_names").begin_array();
  for (const std::string& name : feature_names) {
    out.value(name);
  }
  out.end_array();
  out.key("freqs_mhz").begin_array();
  for (const double f : freqs_mhz) {
    out.value(f);
  }
  out.end_array();
  out.key("default_freq_mhz").value(default_freq_mhz);
  ds->write(out.key("model"), kind == ModelKind::kHybrid);
  out.end_object();
}

ModelArtifact ModelArtifact::read(json::Reader& in) {
  DSEM_ENSURE(in.peek() == json::Reader::Kind::kObject,
              "model artifact: not a JSON object");
  ModelArtifact artifact;
  bool schema = false;
  std::optional<ModelKind> kind;
  std::optional<std::string> application;
  std::optional<std::string> device;
  std::optional<std::string> origin;
  std::optional<std::vector<std::string>> names;
  std::optional<std::vector<double>> freqs;
  std::optional<double> default_freq;
  // The payload's layout depends on the kind, so a document that stores
  // "model" before "kind" has its payload read once the kind is known.
  std::optional<std::string_view> early_model;
  const auto read_model = [&](json::Reader& payload, ModelKind of) {
    artifact.ds = std::make_shared<core::DomainSpecificModel>(
        core::DomainSpecificModel::read(payload, of == ModelKind::kHybrid));
  };
  in.read_object([&](std::string_view field) {
    if (field == "schema") {
      DSEM_ENSURE(in.peek() == json::Reader::Kind::kString,
                  "model artifact: missing schema tag");
      const std::string tag = in.read_string();
      DSEM_ENSURE(tag == kModelSchema,
                  "model artifact: unsupported schema \"" + tag +
                      "\" (this build reads " + kModelSchema + ")");
      schema = true;
    } else if (field == "kind") {
      const std::string name = in.read_string();
      DSEM_ENSURE(name == "domain-specific" || name == "hybrid",
                  "model artifact: unknown kind \"" + name + "\"");
      kind = name == "hybrid" ? ModelKind::kHybrid
                              : ModelKind::kDomainSpecific;
    } else if (field == "application") {
      application = in.read_string();
    } else if (field == "device") {
      device = in.read_string();
    } else if (field == "origin") {
      origin = in.read_string();
    } else if (field == "feature_names") {
      names.emplace();
      in.begin_array();
      while (in.next_element()) {
        names->push_back(in.read_string());
      }
    } else if (field == "freqs_mhz") {
      freqs.emplace();
      in.begin_array();
      while (in.next_element()) {
        freqs->push_back(in.read_number());
      }
    } else if (field == "default_freq_mhz") {
      default_freq = in.read_number();
    } else if (field == "model" && kind) {
      read_model(in, *kind);
    } else if (field == "model") {
      early_model = in.raw_value();
    } else {
      in.skip();
    }
  });
  DSEM_ENSURE(schema, "model artifact: missing schema tag");

  const auto take = [](auto& field, std::string_view name) {
    if (!field) {
      json::missing_key(name);
    }
    return std::move(*field);
  };
  artifact.key.application = take(application, "application");
  artifact.key.device = take(device, "device");
  artifact.origin = take(origin, "origin");
  artifact.feature_names = take(names, "feature_names");
  artifact.freqs_mhz = take(freqs, "freqs_mhz");
  artifact.default_freq_mhz = take(default_freq, "default_freq_mhz");
  check_schedule(artifact.freqs_mhz);
  DSEM_ENSURE(artifact.default_freq_mhz > 0.0,
              "model artifact: non-positive default clock");
  artifact.kind = take(kind, "kind");
  if (early_model) {
    json::Reader payload(*early_model);
    read_model(payload, artifact.kind);
  }
  if (artifact.ds == nullptr) {
    json::missing_key("model");
  }
  // Every split must read inside the query row the artifact builds: the
  // domain features plus frequency, or the hybrid payload's width.
  const std::size_t row_width = artifact.kind == ModelKind::kHybrid
                                    ? artifact.ds->input_width()
                                    : artifact.feature_names.size() + 1;
  for (const ml::Regressor* model :
       {&artifact.ds->time_model(), &artifact.ds->energy_model()}) {
    DSEM_ENSURE(ml::split_width(*model) <= row_width,
                "model artifact: trees split past the " +
                    std::to_string(row_width) + "-column query row");
  }
  return artifact;
}

json::Value ModelArtifact::to_json() const {
  std::string text;
  json::StringSink sink(text);
  json::Writer out(sink);
  write(out);
  out.flush();
  return json::Value::parse(text);
}

ModelArtifact ModelArtifact::from_json(const json::Value& value) {
  const std::string text = value.dump();
  json::Reader in(text);
  ModelArtifact artifact = read(in);
  in.finish();
  return artifact;
}

void ModelArtifact::save_file(const std::string& path) const {
  json::write_file(path, [this](json::Writer& out) { write(out); });
}

ModelArtifact ModelArtifact::load_file(const std::string& path) {
  // Origin is kept exactly as stored so save → load → save is byte-equal.
  ModelArtifact artifact;
  json::read_file(path, [&](json::Reader& in) { artifact = read(in); });
  return artifact;
}

} // namespace dsem::serve
