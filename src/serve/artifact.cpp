#include "serve/artifact.hpp"

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
  case ModelKind::kGeneralPurpose:
    return "general-purpose";
  }
  throw contract_error("model artifact: invalid kind");
}

} // namespace

void ModelArtifact::validate() const {
  DSEM_ENSURE(is_advisable() ? ds != nullptr && ds->trained()
                             : gp != nullptr && gp->trained(),
              std::string("artifact: no trained ") + kind_name(kind) +
                  " model");
}

core::Prediction
ModelArtifact::predict(std::span<const double> features,
                       std::span<const double> freqs) const {
  DSEM_ENSURE(is_advisable() && ds != nullptr,
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

json::Value ModelArtifact::to_json() const {
  validate();
  DSEM_ENSURE(!key.application.empty() && !key.device.empty(),
              "artifact key must name an application and a device");
  DSEM_ENSURE(!freqs_mhz.empty(), "artifact without a frequency schedule");
  DSEM_ENSURE(default_freq_mhz > 0.0, "artifact without a default clock");

  auto out = json::Value::object();
  out.set("schema", kModelSchema);
  out.set("kind", kind_name(kind));
  out.set("application", key.application);
  out.set("device", key.device);
  out.set("origin", origin);
  auto names = json::Value::array();
  for (const std::string& name : feature_names) {
    names.push_back(name);
  }
  out.set("feature_names", std::move(names));
  auto freqs = json::Value::array();
  for (const double f : freqs_mhz) {
    freqs.push_back(f);
  }
  out.set("freqs_mhz", std::move(freqs));
  out.set("default_freq_mhz", default_freq_mhz);
  out.set("model", is_advisable() ? ds->to_json(kind == ModelKind::kHybrid)
                                  : gp->to_json());
  return out;
}

ModelArtifact ModelArtifact::from_json(const json::Value& value) {
  DSEM_ENSURE(value.is_object(), "model artifact: not a JSON object");
  const json::Value* schema = value.find("schema");
  DSEM_ENSURE(schema != nullptr && schema->is_string(),
              "model artifact: missing schema tag");
  DSEM_ENSURE(schema->as_string() == kModelSchema,
              "model artifact: unsupported schema \"" + schema->as_string() +
                  "\" (this build reads " + kModelSchema + ")");

  ModelArtifact artifact;
  artifact.key.application = value.at("application").as_string();
  artifact.key.device = value.at("device").as_string();
  artifact.origin = value.at("origin").as_string();
  for (const json::Value& name : value.at("feature_names").as_array()) {
    artifact.feature_names.push_back(name.as_string());
  }
  for (const json::Value& f : value.at("freqs_mhz").as_array()) {
    artifact.freqs_mhz.push_back(f.as_number());
  }
  artifact.default_freq_mhz = value.at("default_freq_mhz").as_number();
  DSEM_ENSURE(!artifact.freqs_mhz.empty(),
              "model artifact: empty frequency schedule");
  DSEM_ENSURE(artifact.default_freq_mhz > 0.0,
              "model artifact: non-positive default clock");

  const std::string& kind = value.at("kind").as_string();
  if (kind == "domain-specific" || kind == "hybrid") {
    artifact.kind = kind == "hybrid" ? ModelKind::kHybrid
                                     : ModelKind::kDomainSpecific;
    artifact.ds = std::make_shared<core::DomainSpecificModel>(
        core::DomainSpecificModel::from_json(
            value.at("model"), artifact.kind == ModelKind::kHybrid));
    // Every split must read inside the query row the artifact builds:
    // the domain features plus frequency, or the hybrid payload's width.
    const std::size_t row_width = artifact.kind == ModelKind::kHybrid
                                      ? artifact.ds->input_width()
                                      : artifact.feature_names.size() + 1;
    for (const ml::Regressor* model :
         {&artifact.ds->time_model(), &artifact.ds->energy_model()}) {
      DSEM_ENSURE(ml::split_width(*model) <= row_width,
                  "model artifact: trees split past the " +
                      std::to_string(row_width) + "-column query row");
    }
  } else if (kind == "general-purpose") {
    artifact.kind = ModelKind::kGeneralPurpose;
    artifact.gp = std::make_shared<core::GeneralPurposeModel>(
        core::GeneralPurposeModel::from_json(value.at("model")));
  } else {
    throw contract_error("model artifact: unknown kind \"" + kind + "\"");
  }
  return artifact;
}

void ModelArtifact::save_file(const std::string& path) const {
  json::write_file(path, to_json());
}

ModelArtifact ModelArtifact::load_file(const std::string& path) {
  // Origin is kept exactly as stored so save → load → save is byte-equal.
  return from_json(json::read_file(path));
}

} // namespace dsem::serve
