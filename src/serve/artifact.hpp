// Serialized model artifacts: the "dsem-model-v1" schema (DESIGN.md §7.11).
//
// The serving layer's unit of deployment: one trained frequency model —
// the paper's domain-specific family or its hybrid variant over fused
// rows — bundled with everything a server needs to
// answer queries without re-profiling the device: the (application,
// device) key, the frequency schedule it was trained over, the default
// clock used as the speedup/energy baseline, and the domain feature names
// (doubling as the input-width contract of requests).
//
// Artifacts round-trip bit-identically: to_json uses the deterministic
// common/json writer ("%.17g" doubles, insertion-ordered keys), so
// serialize → parse → re-serialize is byte-equal and a loaded model
// answers every query bit-identically to the in-process original
// (property-tested in tests/serve/serialization_test.cpp). Train once
// with `frequency_advisor --train-out`, load anywhere with `--model-in`.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/ds_model.hpp"

namespace dsem::serve {

inline constexpr const char* kModelSchema = "dsem-model-v1";

/// Registry key: which application's queries a model answers, measured on
/// which device.
struct ModelKey {
  std::string application; ///< "cronos" | "ligen" | ...
  std::string device;      ///< e.g. "v100", "mi100"

  auto operator<=>(const ModelKey&) const = default;
  std::string to_string() const { return application + "/" + device; }
};

/// What an artifact holds, stored as the document's "kind" tag.
enum class ModelKind {
  kDomainSpecific, ///< `ds` over [domain features..., frequency] rows
  kHybrid,         ///< `ds` over core::fuse_dataset rows
};

/// One deployable model: a trained frequency model in `ds` that answers
/// per-input queries through predict().
struct ModelArtifact {
  ModelKey key;
  std::string origin; ///< provenance, e.g. "trained-in-process" or a path
  std::vector<std::string> feature_names; ///< domain features, in order
  std::vector<double> freqs_mhz;          ///< prediction frequency schedule
  double default_freq_mhz = 0.0;          ///< baseline clock
  ModelKind kind = ModelKind::kDomainSpecific;
  std::shared_ptr<const core::DomainSpecificModel> ds;

  /// Throws contract_error unless `ds` holds a trained model.
  void validate() const;

  /// The frequency model's curves for one request's domain `features`
  /// over `freqs` (MHz), baselined at default_freq_mhz. The one place
  /// request features become a query row: the features themselves, or —
  /// hybrid — the fused vector (core::fused_feature_vector) of the
  /// canonical workload they describe (core::workload_from_features) on
  /// the device preset the key names, the construction training used.
  core::Prediction predict(std::span<const double> features,
                           std::span<const double> freqs) const;

  /// "dsem-model-v1" document. Deterministic: calling it twice on the
  /// same artifact yields byte-identical dumps.
  json::Value to_json() const;

  /// Parses a "dsem-model-v1" document. Schema-tag mismatches, unknown
  /// kinds, and malformed payloads raise contract_error (version drift is
  /// a clean error, never a crash or a silently wrong model).
  static ModelArtifact from_json(const json::Value& value);

  /// File variants through json::write_file / json::read_file:
  /// pretty-printed JSON with a trailing newline (the repo convention),
  /// parsed back with full validation. Either path must be a regular file.
  void save_file(const std::string& path) const;
  static ModelArtifact load_file(const std::string& path);
};

} // namespace dsem::serve
