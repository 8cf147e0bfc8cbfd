#include "serve/loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/statistics.hpp"
#include "obs/ledger.hpp"

namespace dsem::serve {

namespace {

/// One application's share of a batch: the snapshot resolved at batch
/// start, its provenance, its energy sum and the batch positions that
/// missed. A run() reuses its slots from batch to batch; each batch ends
/// by releasing its snapshots.
struct AppSlot {
  std::shared_ptr<const ModelArtifact> artifact;
  std::string model;        ///< provenance "app/device@origin"
  double* energy = nullptr; ///< the app's ServeStats::energy_by_application
  std::vector<std::size_t> misses;
};

} // namespace

ServeLoop::ServeLoop(const ModelRegistry& registry, ServeConfig config)
    : registry_(registry), config_(config), cache_(config.cache_capacity),
      fronts_(config.cache_capacity) {
  DSEM_ENSURE(config_.batch_size > 0, "serve: batch size must be > 0");
  DSEM_ENSURE(config_.hit_cost_s > 0.0 && config_.miss_cost_s > 0.0,
              "serve: service costs must be > 0");
  DSEM_ENSURE(!config_.device.empty(), "serve: empty device name");
  DSEM_ENSURE(std::isfinite(config_.cache_quant_step) &&
                  config_.cache_quant_step > 0.0,
              "serve: cache quantization step must be finite and > 0");
}

std::shared_ptr<const ModelArtifact>
ServeLoop::resolve_artifact(const std::string& app) {
  auto artifact = registry_.require(ModelKey{app, config_.device});
  auto& last = artifacts_[app];
  if (last != nullptr && last != artifact) {
    // The registry swapped the snapshot behind this key: every cached
    // answer and front computed with the old model is stale. Both caches'
    // keys start with "app/device|", so one prefix sweep each drops
    // exactly this model's entries.
    const std::string prefix = artifact->key.to_string() + "|";
    fronts_.erase_prefix(prefix);
    const std::size_t dropped = cache_.erase_prefix(prefix);
    if (dropped > 0) {
      stats_.cache_invalidations += dropped;
      metrics::counter("serve.cache.invalidations", dropped);
    }
  }
  last = artifact;
  return artifact;
}

std::vector<AdviseResponse>
ServeLoop::run(std::span<const TimedRequest> trace) {
  // Every request is checked before any is served, so a bad one never
  // reaches cache_key or the forests, and never leaves the run half done
  // with answers cached and records in the ledger. Each application is
  // resolved once, for its feature count.
  std::vector<std::pair<std::string_view, std::size_t>> widths;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const AdviseRequest& request = trace[i].request;
    validate(request);
    validate_key_range(request, config_.cache_quant_step);
    DSEM_ENSURE(i == 0 || trace[i - 1].arrival_s <= trace[i].arrival_s,
                "serve: trace arrivals must be ascending");
    auto width = std::find_if(widths.begin(), widths.end(), [&](const auto& w) {
      return w.first == request.application;
    });
    if (width == widths.end()) {
      const auto artifact =
          registry_.require(ModelKey{request.application, config_.device});
      widths.emplace_back(request.application,
                          artifact->feature_names.size());
      width = widths.end() - 1;
    }
    DSEM_ENSURE(request.features.size() == width->second,
                "serve: request " + std::to_string(i) + " has " +
                    std::to_string(request.features.size()) +
                    " features; the model for \"" + request.application +
                    "\" takes " + std::to_string(width->second));
  }
  const auto wall_start = std::chrono::steady_clock::now();

  // The per-request cost without a ledger is a null check.
  obs::Ledger* const ledger = config_.ledger;

  stats_ = ServeStats{};
  stats_.requests = trace.size();
  std::vector<AdviseResponse> responses(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    responses[i].arrival_s = trace[i].arrival_s;
  }

  std::deque<std::size_t> waiting;
  // Per-batch containers, allocated once per run and reused.
  std::vector<std::size_t> batch;
  std::vector<std::size_t> slot_of; ///< batch position -> slots index
  std::vector<std::string> keys;
  std::vector<bool> hit;
  std::vector<AppSlot> slots;
  // Per-application miss containers: the distinct inputs still needing a
  // front (key -> input number, the keys in input order, the inputs) and
  // the (batch position, input number) pairs waiting on them.
  std::unordered_map<std::string, std::size_t> pending;
  std::vector<const std::string*> pending_keys;
  std::vector<std::span<const double>> inputs;
  std::vector<std::pair<std::size_t, std::size_t>> waiting_misses;
  std::size_t next_arrival = 0;
  double server_free_s = 0.0;
  double last_completion_s = 0.0;

  const auto shed = [&](std::size_t index, double when_s) {
    AdviseResponse& response = responses[index];
    response.shed = true;
    response.completion_s = when_s;
    response.latency_s = when_s - response.arrival_s;
    last_completion_s = std::max(last_completion_s, when_s);
    ++stats_.shed;
    if (ledger != nullptr) {
      // Shed requests must appear in the ledger too — otherwise its
      // totals cannot reconcile with ServeStats. A shed request spent its
      // whole latency waiting and was never dispatched (batch 0).
      obs::RequestRecord record;
      record.index = static_cast<std::uint64_t>(index);
      record.id = obs::derive_record_id("req", record.index);
      record.application = trace[index].request.application;
      record.arrival_s = response.arrival_s;
      record.queue_wait_s = response.latency_s;
      record.completion_s = when_s;
      record.latency_s = response.latency_s;
      record.shed = true;
      record.max_slowdown = trace[index].request.max_slowdown;
      record.cause = obs::MissCause::kShed;
      ledger->add(std::move(record));
    }
  };

  while (next_arrival < trace.size() || !waiting.empty()) {
    // The server dispatches its next batch at `horizon`: when it frees
    // up, or — if idle with an empty queue — when the next request lands.
    double horizon_s = server_free_s;
    if (waiting.empty() && trace[next_arrival].arrival_s > horizon_s) {
      horizon_s = trace[next_arrival].arrival_s;
    }
    // Admit everything that has arrived by then, in arrival order,
    // shedding the oldest waiter whenever the queue is at its bound.
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival_s <= horizon_s) {
      if (config_.admission_bound > 0 &&
          waiting.size() == config_.admission_bound) {
        shed(waiting.front(), trace[next_arrival].arrival_s);
        waiting.pop_front();
      }
      waiting.push_back(next_arrival);
      ++next_arrival;
    }

    const std::size_t batch_count =
        std::min(config_.batch_size, waiting.size());
    batch.assign(waiting.begin(), waiting.begin() + batch_count);
    waiting.erase(waiting.begin(), waiting.begin() + batch_count);
    ++stats_.batches;

    // Resolve the batch's artifacts from the registry FIRST: a replaced
    // snapshot invalidates its cached answers before any lookup below can
    // serve them (the re-registration staleness bug, ROADMAP item 1).
    std::size_t active = 0;
    slot_of.resize(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::string& app = trace[batch[b]].request.application;
      std::size_t s = 0;
      while (s < active && slots[s].artifact->key.application != app) {
        ++s;
      }
      if (s == active) {
        if (active == slots.size()) {
          slots.emplace_back();
        }
        AppSlot& slot = slots[active++];
        slot.artifact = resolve_artifact(app);
        const ModelKey& key = slot.artifact->key;
        slot.model.assign(key.application)
            .append(1, '/')
            .append(key.device)
            .append(1, '@')
            .append(slot.artifact->origin);
        slot.energy = &stats_.energy_by_application[app];
        slot.misses.clear();
      }
      slot_of[b] = s;
    }

    // Cache lookups see the cache as of batch start (no insertions
    // happen until the whole batch is answered); hits refresh recency in
    // logical request order. Identical keys that miss together are
    // computed together — the answer is the same, so the later insert is
    // a refresh.
    keys.resize(batch.size());
    hit.assign(batch.size(), false);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const AdviseRequest& request = trace[batch[b]].request;
      AppSlot& slot = slots[slot_of[b]];
      keys[b] = cache_key(slot.artifact->key, request,
                          config_.cache_quant_step);
      AdviseResponse& response = responses[batch[b]];
      if (cache_.get(keys[b], response.answer)) {
        hit[b] = true;
        ++stats_.cache_hits;
      } else {
        slot.misses.push_back(b);
        ++stats_.cache_misses;
      }
    }

    // The misses' answers, from their inputs' Pareto fronts against the
    // snapshots resolved at batch start. A memoised front answers at
    // once; the rest are numbered by distinct exact input, computed in one
    // parallel pass, and memoised in order of first appearance after
    // every miss has picked its answer.
    for (std::size_t s = 0; s < active; ++s) {
      const AppSlot& slot = slots[s];
      if (slot.misses.empty()) {
        continue;
      }
      pending.clear();
      pending_keys.clear();
      inputs.clear();
      waiting_misses.clear();
      for (const std::size_t b : slot.misses) {
        const AdviseRequest& request = trace[batch[b]].request;
        std::string key = front_key(slot.artifact->key, request.features);
        if (const ParetoFront* front = fronts_.find(key)) {
          responses[batch[b]].answer =
              pick_answer(*front, request.max_slowdown);
          continue;
        }
        const auto [it, fresh] = pending.try_emplace(std::move(key),
                                                     inputs.size());
        if (fresh) {
          pending_keys.push_back(&it->first);
          inputs.push_back(request.features);
        }
        waiting_misses.emplace_back(b, it->second);
      }
      if (inputs.empty()) {
        continue;
      }
      const std::vector<ParetoFront> computed =
          advisor_.fronts(*slot.artifact, inputs);
      for (const auto& [b, k] : waiting_misses) {
        responses[batch[b]].answer = pick_answer(
            computed[k], trace[batch[b]].request.max_slowdown);
      }
      // The memo stores copies made on this thread: the pool workers'
      // allocations go back to their own malloc arenas at once instead of
      // being held there by the memo (0.4 MB of serve_burst's peak RSS).
      for (std::size_t k = 0; k < computed.size(); ++k) {
        fronts_.put(*pending_keys[k], ParetoFront(computed[k]));
      }
      stats_.fronts += computed.size();
    }

    // Sequential service in simulated time, then cache insertions in
    // logical request order.
    double now_s =
        std::max(server_free_s, responses[batch.front()].arrival_s);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      AdviseResponse& response = responses[batch[b]];
      const AppSlot& slot = slots[slot_of[b]];
      const double service_start_s = now_s;
      now_s += hit[b] ? config_.hit_cost_s : config_.miss_cost_s;
      response.cache_hit = hit[b];
      response.completion_s = now_s;
      response.latency_s = now_s - response.arrival_s;
      response.model = slot.model;
      if (!hit[b]) {
        cache_.put(keys[b], response.answer);
      }
      ++stats_.served;
      stats_.predicted_energy_j += response.answer.predicted_energy_j;
      *slot.energy += response.answer.predicted_energy_j;
      if (ledger != nullptr) {
        obs::RequestRecord record;
        record.index = static_cast<std::uint64_t>(batch[b]);
        record.id = obs::derive_record_id("req", record.index);
        record.application = slot.artifact->key.application;
        record.model = response.model;
        record.arrival_s = response.arrival_s;
        record.queue_wait_s = service_start_s - response.arrival_s;
        record.service_s = now_s - service_start_s;
        record.completion_s = now_s;
        record.latency_s = response.latency_s;
        record.cache_hit = hit[b];
        record.batch = stats_.batches; // 1-based: incremented at dispatch
        record.freq_mhz = response.answer.freq_mhz;
        record.predicted_time_s = response.answer.predicted_time_s;
        record.predicted_energy_j = response.answer.predicted_energy_j;
        record.max_slowdown = trace[batch[b]].request.max_slowdown;
        record.budget_infeasible = response.answer.budget_infeasible;
        ledger->add(std::move(record));
      }
    }
    server_free_s = now_s;
    last_completion_s = std::max(last_completion_s, now_s);
    for (std::size_t s = 0; s < active; ++s) {
      slots[s].artifact.reset();
    }
  }

  // Deterministic accounting: latencies are simulated, so the histogram
  // and percentiles are safe across pool sizes.
  std::vector<double> latencies;
  latencies.reserve(stats_.served);
  for (const AdviseResponse& response : responses) {
    if (!response.shed) {
      latencies.push_back(response.latency_s);
      metrics::histogram("serve.latency_s", response.latency_s);
    }
  }
  if (!latencies.empty()) {
    stats_.p50_latency_s = stats::quantile(latencies, 0.50);
    stats_.p99_latency_s = stats::quantile(latencies, 0.99);
    stats_.max_latency_s = *std::max_element(latencies.begin(),
                                             latencies.end());
  }
  stats_.sim_duration_s = last_completion_s;
  stats_.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  // Every request is either served or shed — the ledger's reconciliation
  // guarantee starts here.
  DSEM_ENSURE(stats_.served + stats_.shed == stats_.requests,
              "serve: served + shed must equal requests");

  metrics::counter("serve.requests", stats_.requests);
  metrics::counter("serve.served", stats_.served);
  metrics::counter("serve.shed", stats_.shed);
  metrics::counter("serve.cache.hits", stats_.cache_hits);
  metrics::counter("serve.cache.misses", stats_.cache_misses);
  metrics::counter("serve.batches", stats_.batches);
  metrics::counter("serve.fronts", stats_.fronts);
  // Driver-thread gauges: deterministic because run() is serial here.
  metrics::gauge("serve.predicted_energy_j", stats_.predicted_energy_j,
                 metrics::Reliability::kDeterministic);
  metrics::gauge("serve.sim_duration_s", stats_.sim_duration_s,
                 metrics::Reliability::kDeterministic);
  metrics::gauge("serve.wall_s", stats_.wall_s);
  return responses;
}

} // namespace dsem::serve
