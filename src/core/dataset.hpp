// Training datasets for the domain-specific models.
//
// One row per (input, frequency) pair: D = { s : s = (f⃗, c, t, e) } in the
// paper's notation (§4.2.2). Rows carry a group id per input so
// leave-one-input-out cross-validation can hold out all frequency samples
// of one input together.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/measurement.hpp"
#include "core/sweep.hpp"
#include "ml/matrix.hpp"

namespace dsem::core {

struct Dataset {
  ml::Matrix x;                ///< [domain features..., freq_mhz]
  std::vector<double> time_s;  ///< measured execution time
  std::vector<double> energy_j;///< measured energy
  std::vector<int> groups;     ///< input (workload) id per row
  std::vector<std::string> group_names;    ///< group id -> workload name
  std::vector<Measurement> group_default;  ///< measured default baseline
  std::vector<double> default_freq_mhz;    ///< per group

  std::size_t rows() const noexcept { return time_s.size(); }
  std::size_t num_groups() const noexcept { return group_names.size(); }

  /// Row indices of one group.
  std::vector<std::size_t> rows_of_group(int group) const;

  /// Group id by workload name; throws if absent.
  int group_of(const std::string& name) const;

  /// False when the group's sweep degraded past usability: its baseline
  /// exhausted retries (group_default is the {0, 0} placeholder) or every
  /// frequency point failed. Such groups keep their id slot — group ids
  /// always equal workload indices — but contribute no training rows and
  /// must be skipped by evaluation.
  bool group_ok(int group) const;
};

/// Measures every workload at every frequency in `freqs` (all supported
/// when empty), `repetitions` times each, plus the default-clock baseline.
/// The (workload x frequency) grid runs through the deterministic parallel
/// sweep engine (core/sweep.hpp): identical output for any pool size.
Dataset build_dataset(synergy::Device& device,
                      std::span<const std::unique_ptr<Workload>> workloads,
                      const SweepOptions& options,
                      std::span<const double> freqs = {});

/// Convenience overload: default sweep options with `repetitions` and a
/// sweep-local profile cache.
Dataset build_dataset(synergy::Device& device,
                      std::span<const std::unique_ptr<Workload>> workloads,
                      int repetitions = kDefaultRepetitions,
                      std::span<const double> freqs = {});

inline constexpr const char* kDatasetSchema = "dsem-dataset-v1";

/// Serializes a dataset as a "dsem-dataset-v1" document (deterministic:
/// %.17g doubles, insertion-ordered keys — byte-stable round-trips). This
/// is how golden evaluation datasets are pinned under tests/data/ and how
/// `frequency_advisor --dataset-out` exports a sweep.
json::Value dataset_to_json(const Dataset& dataset);

/// Parses a "dsem-dataset-v1" document; schema mismatches and malformed
/// payloads raise contract_error.
Dataset dataset_from_json(const json::Value& value);

/// File variants through json::write_file / json::read_file:
/// pretty-printed JSON with a trailing newline, regular files only.
void save_dataset(const Dataset& dataset, const std::string& path);
Dataset load_dataset(const std::string& path);

} // namespace dsem::core
