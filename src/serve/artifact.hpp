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
// An artifact streams out through json::Writer straight from its trained
// trees and streams back in from json::Reader tokens: no json::Value tree
// is built on the save or the load path. Artifacts round-trip
// bit-identically: the writer is deterministic ("%.17g" doubles, fixed
// key order), so write → read → write is byte-equal and a loaded model
// answers every query bit-identically to the in-process original
// (property-tested in tests/serve/serialization_test.cpp). to_json and
// from_json are adapters over the same two streams for code that wants a
// document. Train once with `frequency_advisor --train-out`, load
// anywhere with `--model-in`.
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

  /// Writes the "dsem-model-v1" document. Deterministic: writing the same
  /// artifact twice yields byte-identical text. Throws contract_error for
  /// an untrained model, a missing key, schedule or clock, before
  /// writing anything.
  void write(json::Writer& out) const;

  /// Reads a "dsem-model-v1" document in one pass over its tokens, its
  /// fields in any order; unknown keys are skipped and a key repeated
  /// within one object raises. Schema-tag mismatches, unknown kinds, and
  /// malformed payloads raise contract_error (version drift is a clean
  /// error, never a crash or a silently wrong model).
  static ModelArtifact read(json::Reader& in);

  /// The document write() writes, parsed into a json::Value.
  json::Value to_json() const;
  /// read() over the text of `value`.
  static ModelArtifact from_json(const json::Value& value);

  /// File variants of write() and read() through json::write_file /
  /// json::read_file: pretty-printed JSON with a trailing newline (the
  /// repo convention), read back with full validation. Either path must
  /// be a regular file.
  void save_file(const std::string& path) const;
  static ModelArtifact load_file(const std::string& path);
};

} // namespace dsem::serve
