// The Advisor serving loop: admission control, answer cache, batched
// model evaluation, and deterministic latency accounting.
//
// The loop replays a timestamped request trace against a single logical
// server in *simulated* time: per-request service cost is a fixed
// hit_cost_s or miss_cost_s, so queueing delays, shed decisions, and
// latency percentiles are a pure function of the trace and the config —
// bit-identical for any DSEM_THREADS. Real model inference still runs
// (batched, on the thread pool) to produce the answers and the
// wall-clock throughput number; only the *reported latencies* come from
// the simulated clock. Determinism rules:
//
//  - Admission and shedding happen in arrival order. When the waiting
//    queue is at admission_bound, the OLDEST waiting request is shed to
//    admit the newcomer (shed-oldest: the newest request has the best
//    chance of meeting its deadline).
//  - Each batch's cache lookups see the cache as of batch start; the
//    batch's answers are then inserted in logical request order. Cache
//    content is therefore a function of the request sequence and the
//    registration sequence alone.
//  - An answer-cache miss is answered from its input's Pareto front.
//    Fronts are memoised under their exact-input key (front_key: the
//    features' bit patterns, never the quantized ones), so a memoised
//    front is the front Advisor::advise would compute and every answer
//    stays bit-identical to it. Misses look their fronts up in logical
//    request order; the fronts still missing are computed once per
//    distinct input in one parallel pass into pre-sized slots, each miss
//    picks its own budget's answer, and the new fronts are inserted in
//    order of first appearance. The front memo is bounded by
//    cache_capacity too (0 disables both) and only ever changes how many
//    fronts are computed (the serve.fronts counter), never an answer.
//  - Model artifacts are re-resolved from the registry at every batch
//    start, BEFORE the cache lookups. When the resolved snapshot differs
//    from the one that produced the cached answers (a put() replaced the
//    model), every cached answer and front of that (application, device)
//    key is invalidated first — a re-registration mid-trace (or between run()
//    calls; the cache persists) flips answers immediately instead of
//    serving the old model's cached picks.
//  - Responses are returned indexed by trace position (pre-sized slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/advisor.hpp"
#include "serve/lru_cache.hpp"
#include "serve/registry.hpp"
#include "serve/traffic.hpp"

namespace dsem::obs {
class Ledger;
} // namespace dsem::obs

namespace dsem::serve {

struct ServeConfig {
  /// Device half of the registry key for every request.
  std::string device = "v100";
  /// Max requests answered per server dispatch.
  std::size_t batch_size = 64;
  /// Waiting-queue bound for admission control; 0 = unbounded.
  std::size_t admission_bound = 1024;
  /// LRU answer-cache capacity, and the bound of the Pareto-front memo;
  /// 0 disables both.
  std::size_t cache_capacity = 4096;
  /// Feature quantization step for cache keys (serve/advisor.hpp).
  double cache_quant_step = 1.0;
  /// Simulated service cost of a cache hit / miss, seconds.
  double hit_cost_s = 2e-6;
  double miss_cost_s = 2e-4;
  /// Attribution-ledger sink: every request of a run() is recorded here;
  /// null records nothing. Drivers pass obs::Session::ledger().
  obs::Ledger* ledger = nullptr;
};

/// Outcome of one request. All times are simulated seconds.
struct AdviseResponse {
  bool shed = false;
  bool cache_hit = false;
  AdviseAnswer answer;       ///< zeroed when shed
  std::string model;         ///< provenance "app/device@origin"; "" when shed
  double arrival_s = 0.0;
  double completion_s = 0.0; ///< shed time for shed requests
  double latency_s = 0.0;    ///< completion - arrival

  bool operator==(const AdviseResponse&) const = default;
};

/// Aggregates over one run() call. Everything except wall_s and
/// throughput_rps() is deterministic.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Cached answers dropped because their model was re-registered.
  std::uint64_t cache_invalidations = 0;
  /// Pareto fronts computed: cache misses whose exact input had no
  /// memoised front, one per distinct input of a batch.
  std::uint64_t fronts = 0;
  std::uint64_t batches = 0;
  double p50_latency_s = 0.0; ///< served requests only
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  double sim_duration_s = 0.0; ///< last completion in simulated time
  double wall_s = 0.0;         ///< wall-clock run time (report only)
  /// Predicted joules of the advised answers, summed over served
  /// requests in trace order (shed requests consume no energy budget).
  double predicted_energy_j = 0.0;
  /// The same total split per application, map-ordered.
  std::map<std::string, double> energy_by_application;

  double hit_rate() const noexcept {
    return served > 0 ? static_cast<double>(cache_hits) /
                            static_cast<double>(served)
                      : 0.0;
  }
  double shed_rate() const noexcept {
    return requests > 0 ? static_cast<double>(shed) /
                              static_cast<double>(requests)
                        : 0.0;
  }
  /// Served requests per wall-clock second (not simulated time).
  double throughput_rps() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(served) / wall_s : 0.0;
  }
};

class ServeLoop {
public:
  /// The registry must outlive the loop and hold a domain-specific model
  /// for every (application, config.device) the traffic can name.
  ServeLoop(const ModelRegistry& registry, ServeConfig config);

  /// Replays `trace` (ascending arrival_s) to completion. Responses are
  /// indexed by trace position. The whole trace is checked first (values,
  /// key range, arrival order, a registered model per application and
  /// its feature count), so a bad request throws contract_error before
  /// any request is served, cached or recorded. The caches persist
  /// across run() calls; stats are per call.
  std::vector<AdviseResponse> run(std::span<const TimedRequest> trace);

  const ServeStats& stats() const noexcept { return stats_; }
  const LruCache& cache() const noexcept { return cache_; }
  LruCache& cache() noexcept { return cache_; }
  const FrontCache& fronts() const noexcept { return fronts_; }

private:
  /// Resolves the artifact serving `app` right now, invalidating the
  /// cached answers (counted in the per-run stats) and fronts of a
  /// replaced snapshot.
  std::shared_ptr<const ModelArtifact> resolve_artifact(
      const std::string& app);

  const ModelRegistry& registry_;
  ServeConfig config_;
  Advisor advisor_;
  LruCache cache_;
  FrontCache fronts_;
  ServeStats stats_;
  /// Last-served artifact per application: the snapshot the cached
  /// answers and fronts were computed with. Persists across run() calls, like the
  /// cache itself.
  std::map<std::string, std::shared_ptr<const ModelArtifact>> artifacts_;
};

} // namespace dsem::serve
