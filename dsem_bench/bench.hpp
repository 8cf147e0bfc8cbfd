// Shared declarations of the dsem_bench binary: run options, the trained
// set-up every workload starts from, the workload interface, and the
// traced run's replay of per-request and per-job pieces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "sched/scheduler.hpp"
#include "serve/registry.hpp"
#include "serve/traffic.hpp"
#include "spans.hpp"

namespace dsem_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  /// Same code path at tiny sizes (tests, sanitizer builds).
  bool smoke = false;
  /// Where the run's files go: ledger exports, artifact round trips,
  /// the traced run's spans.
  std::string work_dir = ".bench_build/run";
};

/// What every workload starts from: both applications' V100
/// domain-specific artifacts, trained from the seed, in a registry.
struct Setup {
  dsem::serve::ModelRegistry registry;
  /// Digest of one prediction per artifact: set-ups of one seed agree.
  std::uint64_t digest = 0;
};
std::unique_ptr<Setup> train_setup(const Options& options);

/// Named per-layer values one round or one replay observed.
using Values = std::map<std::string, double>;

struct RoundResult {
  /// Chained FNV-1a over every output of the round (doubles by their bit
  /// pattern): equal digests mean bit-identical outputs.
  std::uint64_t digest = 0;
  std::uint64_t ops = 0;    ///< requests, jobs or reported inputs done
  std::uint64_t failed_checks = 0;
  /// Result relative to the paper's baseline; lower is better.
  double quality_ratio = 0.0;
  Values counts; ///< per-layer counts (traced runs report them)
};

/// The last round's per-request and per-job pieces, which a traced run
/// re-executes one by one, each against the output the round produced.
struct ReplayInputs {
  std::vector<dsem::serve::AdviseRequest> requests;
  /// Per request: the answer the round gave, and whether the round
  /// computed it (a cache miss) rather than serving it from the cache.
  std::vector<dsem::serve::AdviseAnswer> answers;
  std::vector<bool> computed;
  std::vector<dsem::serve::TimedJob> jobs;
  /// Per job, when the round scheduled them; empty otherwise.
  std::vector<dsem::sched::JobOutcome> outcomes;
  dsem::sched::SchedConfig sched;
  const dsem::obs::Ledger* ledger = nullptr; ///< the round's, if any
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Untimed, once per run before the rounds: state a steady-state
  /// server would already have (a filled answer cache).
  virtual void warm_up() {}

  /// One timed unit of work. `spans` is null in untraced runs.
  virtual void round(SpanRecorder* spans) = 0;

  /// Untimed: digests and checks the last round's outputs, and may
  /// release them.
  virtual RoundResult check() = 0;

  /// Untimed, once per run after the rounds: work that completes the
  /// result but is not the workload (a baseline policy to compare with).
  virtual void finish(RoundResult&) {}

  /// The last round's pieces for a traced run's replay; called between
  /// round() and check().
  virtual ReplayInputs replay_inputs() const = 0;
};

/// The workload `options.workload` names; throws for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& options, Setup& setup);

/// Traced runs only: replays `inputs` piece by piece under spans, checks
/// each piece against the round's output, and measures the per-layer
/// probes. Returns the per-layer metrics; adds failed checks to `failed`.
Values replay_and_probe(const Options& options, Setup& setup,
                        ReplayInputs inputs, SpanRecorder& spans,
                        std::uint64_t& failed);

} // namespace dsem_bench
