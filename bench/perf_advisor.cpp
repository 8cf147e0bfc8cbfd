// Serving-path performance benchmarks: the full advisor loop over a
// mixed LiGen/Cronos Poisson stream, the batched-inference hot path, the
// traffic generator itself, and the attribution-ledger export.
//
// BM_ServeMixed reports the paper-scale serving run (10^5 requests) and
// exports its simulated latency percentiles as user counters ending in
// _ns — perf_report lifts those into standalone BENCH entries
// (perf_advisor/BM_ServeMixed:p50_latency_ns, ...). The percentiles are
// deterministic (simulated time), so they gate answer-quality drift
// exactly; wall-clock throughput lives in the benchmark's own real_time.
#include <filesystem>
#include <set>

#include <benchmark/benchmark.h>

#include "obs/ledger.hpp"
#include "serve/loop.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace {

using namespace dsem;

/// Trained once per process: both applications on the simulated V100,
/// the example's full training grids at 2 repetitions.
const serve::ModelRegistry& shared_registry() {
  static serve::ModelRegistry* registry = [] {
    sim::Device sim_dev(sim::v100(), sim::NoiseConfig{}, 0xAD51);
    synergy::Device device(sim_dev);
    serve::TrainConfig config;
    config.sweep.repetitions = 2;
    config.origin = "perf_advisor";
    auto* r = new serve::ModelRegistry;
    r->put(serve::train_domain_specific(device, {"cronos", "v100"}, config));
    r->put(serve::train_domain_specific(device, {"ligen", "v100"}, config));
    return r;
  }();
  return *registry;
}

serve::TrafficConfig traffic_config(std::size_t requests,
                                    std::size_t population) {
  serve::TrafficConfig traffic;
  traffic.requests = requests;
  traffic.arrival_rate_hz = 2000.0;
  traffic.population = population;
  return traffic;
}

void BM_ServeMixed(benchmark::State& state) {
  const auto& registry = shared_registry();
  const auto trace = serve::generate_trace(
      traffic_config(static_cast<std::size_t>(state.range(0)), 512));
  serve::ServeStats stats;
  for (auto _ : state) {
    serve::ServeLoop loop(registry, serve::ServeConfig{});
    benchmark::DoNotOptimize(loop.run(trace));
    stats = loop.stats();
  }
  state.counters["p50_latency_ns"] = stats.p50_latency_s * 1e9;
  state.counters["p99_latency_ns"] = stats.p99_latency_s * 1e9;
  state.counters["max_latency_ns"] = stats.max_latency_s * 1e9;
  state.counters["throughput_rps"] = stats.throughput_rps();
  state.counters["hit_rate"] = stats.hit_rate();
  state.counters["shed"] = static_cast<double>(stats.shed);
  // Deterministic (simulated accounting) but intentionally not _ns: the
  // energy of the advised answers is a quality signal for eyeballs and
  // dsem_inspect cross-checks, not a perf gate.
  state.counters["predicted_energy_j"] = stats.predicted_energy_j;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ServeMixed)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Hit-dominated regime: a small population makes almost every request a
/// cache hit, isolating the loop/cache overhead from model inference.
void BM_ServeCacheHot(benchmark::State& state) {
  const auto& registry = shared_registry();
  const auto trace = serve::generate_trace(traffic_config(100000, 16));
  for (auto _ : state) {
    serve::ServeLoop loop(registry, serve::ServeConfig{});
    benchmark::DoNotOptimize(loop.run(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_ServeCacheHot)->Unit(benchmark::kMillisecond);

/// The batched-inference hot path alone: one advise_batch over the
/// frequency grid, no cache, no queueing. advise_batch computes one front
/// per distinct input, so every request holds a distinct Cronos input:
/// the batch walks the forests once per request.
void BM_AdviseBatch(benchmark::State& state) {
  const auto& registry = shared_registry();
  const auto artifact =
      registry.require(serve::ModelKey{"cronos", "v100"});
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  // Over-generate Cronos-only traffic from a wide population and keep the
  // first `batch` distinct inputs.
  serve::TrafficConfig traffic = traffic_config(8 * batch, 8 * batch);
  traffic.ligen_fraction = 0.0;
  std::set<std::vector<double>> seen;
  std::vector<serve::AdviseRequest> requests;
  for (const serve::TimedRequest& timed : serve::generate_trace(traffic)) {
    if (requests.size() < batch && seen.insert(timed.request.features).second) {
      requests.push_back(timed.request);
    }
  }
  const serve::Advisor advisor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(advisor.advise_batch(*artifact, requests));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_AdviseBatch)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_GenerateTrace(benchmark::State& state) {
  const auto config =
      traffic_config(static_cast<std::size_t>(state.range(0)), 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::generate_trace(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GenerateTrace)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Ledger::write_file over served request records shaped like a nominal
/// serve run's: alternating apps, mostly cache hits, 17-digit doubles.
void BM_LedgerWriteFile(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  obs::Ledger ledger;
  for (std::size_t k = 0; k < records; ++k) {
    obs::RequestRecord record;
    record.index = k;
    record.id = obs::derive_record_id("req", k);
    record.application = k % 2 == 0 ? "cronos" : "ligen";
    record.model = record.application + "/v100@perf_advisor";
    record.arrival_s = static_cast<double>(k) * 5e-4;
    record.cache_hit = k % 8 != 0;
    record.service_s = record.cache_hit ? 2e-6 : 2e-4;
    record.completion_s = record.arrival_s + record.service_s;
    record.latency_s = record.service_s;
    record.batch = k + 1;
    record.freq_mhz = 1000.0 + static_cast<double>(k % 97) * 7.5;
    record.predicted_time_s = 0.1 + static_cast<double>(k % 89) / 3.0;
    record.predicted_energy_j = 25.0 + static_cast<double>(k % 83) / 7.0;
    record.max_slowdown = 0.03;
    ledger.add(std::move(record));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "perf_advisor_ledger.json")
          .string();
  for (auto _ : state) {
    ledger.write_file(path);
  }
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LedgerWriteFile)->Arg(20000)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
