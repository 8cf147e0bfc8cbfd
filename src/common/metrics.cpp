#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace dsem::metrics {

namespace detail {

std::atomic<bool> g_enabled{false};

} // namespace detail

std::size_t bucket_index(double value) noexcept {
  if (!(value > kHistogramMin)) {
    return 0; // <= min, zero, negative, NaN
  }
  const double scaled =
      std::log2(value / kHistogramMin) * kBucketsPerOctave;
  if (scaled >= static_cast<double>(kHistogramBuckets - 2)) {
    return kHistogramBuckets - 1;
  }
  return 1 + static_cast<std::size_t>(scaled);
}

double bucket_upper_bound(std::size_t index) noexcept {
  if (index == 0) {
    return kHistogramMin;
  }
  return kHistogramMin *
         std::exp2(static_cast<double>(index) /
                   static_cast<double>(kBucketsPerOctave));
}

namespace {

/// One instrument's per-shard state. Which fields are live depends on
/// `kind`; keeping one struct makes the name -> instrument map simple.
struct Instrument {
  Kind kind = Kind::kCounter;
  Reliability reliability = Reliability::kDeterministic;
  std::uint64_t count = 0;       ///< increments / samples / updates
  std::uint64_t total = 0;       ///< counter: sum of deltas
  double value = 0.0;            ///< gauge: last value written
  std::uint64_t last_update = 0; ///< gauge: global write order
  double sum = 0.0;              ///< histogram
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets; ///< histogram; sized on first sample
};

/// Per-thread instrument sink. Owned by the registry state, never freed: a
/// thread may record until process exit. The per-shard mutex is
/// uncontended in steady state (only its thread writes) and exists so
/// snapshot() can merge consistently while recording continues.
struct Shard {
  std::mutex mutex;
  std::map<std::string, Instrument, std::less<>> instruments;
};

struct State {
  mutable std::mutex mutex;
  std::deque<std::unique_ptr<Shard>> shards;
};

State& state() {
  static State* s = new State; // leaked: see Registry doc comment
  return *s;
}

/// Global gauge-write ordering: last-write-wins across shards needs a
/// total order that does not depend on which shard the write landed in.
std::atomic<std::uint64_t> g_gauge_order{0};

thread_local Shard* tl_shard = nullptr;

Shard& local_shard() {
  if (tl_shard == nullptr) {
    State& s = state();
    std::lock_guard lock(s.mutex);
    s.shards.push_back(std::make_unique<Shard>());
    tl_shard = s.shards.back().get();
  }
  return *tl_shard;
}

Instrument& instrument(Shard& shard, std::string_view name, Kind kind,
                       Reliability r) {
  const auto it = shard.instruments.find(name);
  if (it != shard.instruments.end()) {
    DSEM_ENSURE(it->second.kind == kind,
                "metrics: instrument re-used with a different kind: " +
                    it->first);
    DSEM_ENSURE(it->second.reliability == r,
                "metrics: instrument re-used with a different reliability: " +
                    it->first);
    return it->second;
  }
  Instrument inst;
  inst.kind = kind;
  inst.reliability = r;
  return shard.instruments.emplace(std::string(name), std::move(inst))
      .first->second;
}

} // namespace

namespace detail {

void record_counter(std::string_view name, std::uint64_t delta,
                    Reliability r) {
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mutex);
  Instrument& inst = instrument(shard, name, Kind::kCounter, r);
  ++inst.count;
  inst.total += delta;
}

void record_gauge(std::string_view name, double value, Reliability r) {
  const std::uint64_t order =
      1 + g_gauge_order.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mutex);
  Instrument& inst = instrument(shard, name, Kind::kGauge, r);
  ++inst.count;
  inst.value = value;
  inst.last_update = order;
}

void record_histogram(std::string_view name, double value, Reliability r) {
  Shard& shard = local_shard();
  std::lock_guard lock(shard.mutex);
  Instrument& inst = instrument(shard, name, Kind::kHistogram, r);
  if (inst.count == 0) {
    inst.min = inst.max = value;
    inst.buckets.assign(kHistogramBuckets, 0);
  } else {
    inst.min = std::min(inst.min, value);
    inst.max = std::max(inst.max, value);
  }
  ++inst.count;
  inst.sum += value;
  ++inst.buckets[bucket_index(value)];
}

} // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  DSEM_ENSURE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  if (count == 0) {
    return 0.0;
  }
  // A sample is attributed its bucket's upper boundary, clamped to the
  // observed range (exact for the extreme ranks and single samples).
  const auto value_at_rank = [this](std::uint64_t rank) {
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      cumulative += buckets[b];
      if (rank < cumulative) {
        return std::clamp(bucket_upper_bound(b), min, max);
      }
    }
    return max;
  };
  const double pos = q * static_cast<double>(count - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min<std::uint64_t>(lo + 1, count - 1);
  const double frac = pos - static_cast<double>(lo);
  return value_at_rank(lo) * (1.0 - frac) + value_at_rank(hi) * frac;
}

double HistogramSnapshot::mean() const noexcept {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

void HistogramSnapshot::observe(double value) {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  const std::size_t index = bucket_index(value);
  if (buckets.size() <= index) {
    buckets.resize(index + 1, 0);
  }
  ++buckets[index];
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) {
    return;
  }
  DSEM_ENSURE(name.empty() || other.name.empty() || name == other.name,
              "metrics: merging histograms of different names: " + name +
                  " vs " + other.name);
  if (count == 0) {
    // An empty snapshot adopts the other side wholesale (its default
    // reliability tag carries no information yet); only the name, when
    // already set, survives.
    const std::string kept_name = name;
    *this = other;
    if (!kept_name.empty()) {
      name = kept_name;
    }
    return;
  }
  DSEM_ENSURE(reliability == other.reliability,
              "metrics: merging histograms of different reliability: " +
                  (name.empty() ? other.name : name));
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

Registry& Registry::global() {
  static Registry* registry = new Registry; // leaked: threads record to exit
  return *registry;
}

Snapshot Registry::snapshot() const {
  // Merge shard-by-shard into name-keyed maps (std::map iteration gives
  // the sorted order the snapshot promises). All merges except the
  // histogram double-sum are order-independent.
  std::map<std::string, CounterSnapshot> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  struct GaugeOrder {
    std::uint64_t last_update = 0;
  };
  std::map<std::string, GaugeOrder> gauge_order;
  std::map<std::string, HistogramSnapshot> histograms;

  State& s = state();
  std::lock_guard lock(s.mutex);
  for (const auto& shard : s.shards) {
    std::lock_guard shard_lock(shard->mutex);
    for (const auto& [name, inst] : shard->instruments) {
      switch (inst.kind) {
      case Kind::kCounter: {
        CounterSnapshot& out = counters[name];
        if (out.name.empty()) {
          out.name = name;
          out.reliability = inst.reliability;
        } else {
          DSEM_ENSURE(out.reliability == inst.reliability,
                      "metrics: reliability mismatch across shards: " + name);
        }
        out.count += inst.count;
        out.total += inst.total;
        break;
      }
      case Kind::kGauge: {
        GaugeSnapshot& out = gauges[name];
        GaugeOrder& order = gauge_order[name];
        if (out.name.empty()) {
          out.name = name;
          out.reliability = inst.reliability;
        } else {
          DSEM_ENSURE(out.reliability == inst.reliability,
                      "metrics: reliability mismatch across shards: " + name);
        }
        out.updates += inst.count;
        if (inst.last_update >= order.last_update) {
          order.last_update = inst.last_update;
          out.value = inst.value;
        }
        break;
      }
      case Kind::kHistogram: {
        HistogramSnapshot& out = histograms[name];
        if (out.name.empty()) {
          out.name = name;
          out.reliability = inst.reliability;
          out.min = inst.min;
          out.max = inst.max;
          out.buckets.assign(kHistogramBuckets, 0);
        } else {
          DSEM_ENSURE(out.reliability == inst.reliability,
                      "metrics: reliability mismatch across shards: " + name);
          out.min = std::min(out.min, inst.min);
          out.max = std::max(out.max, inst.max);
        }
        out.count += inst.count;
        out.sum += inst.sum;
        for (std::size_t b = 0; b < inst.buckets.size(); ++b) {
          out.buckets[b] += inst.buckets[b];
        }
        break;
      }
      }
    }
  }

  Snapshot out;
  out.counters.reserve(counters.size());
  for (auto& [_, c] : counters) {
    out.counters.push_back(std::move(c));
  }
  out.gauges.reserve(gauges.size());
  for (auto& [_, g] : gauges) {
    out.gauges.push_back(std::move(g));
  }
  out.histograms.reserve(histograms.size());
  for (auto& [_, h] : histograms) {
    // Trim trailing empty buckets: snapshots travel into JSON-adjacent
    // code and tests; no reason to carry hundreds of zeros.
    while (!h.buckets.empty() && h.buckets.back() == 0) {
      h.buckets.pop_back();
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

void Registry::clear() {
  State& s = state();
  std::lock_guard lock(s.mutex);
  for (const auto& shard : s.shards) {
    std::lock_guard shard_lock(shard->mutex);
    shard->instruments.clear();
  }
  g_gauge_order.store(0, std::memory_order_relaxed);
}

json::Value Snapshot::to_json(bool deterministic_only) const {
  auto root = json::Value::object();
  root.set("schema", kMetricsSchema);
  root.set("view", deterministic_only ? "deterministic" : "full");

  auto counters_json = json::Value::array();
  for (const CounterSnapshot& c : counters) {
    const bool det = c.reliability == Reliability::kDeterministic;
    if (deterministic_only && !det) {
      continue;
    }
    auto obj = json::Value::object();
    obj.set("name", c.name);
    obj.set("deterministic", det);
    obj.set("count", c.count);
    obj.set("total", c.total);
    counters_json.push_back(std::move(obj));
  }
  root.set("counters", std::move(counters_json));

  auto gauges_json = json::Value::array();
  for (const GaugeSnapshot& g : gauges) {
    const bool det = g.reliability == Reliability::kDeterministic;
    if (deterministic_only && !det) {
      continue;
    }
    auto obj = json::Value::object();
    obj.set("name", g.name);
    obj.set("deterministic", det);
    obj.set("value", g.value);
    obj.set("updates", g.updates);
    gauges_json.push_back(std::move(obj));
  }
  root.set("gauges", std::move(gauges_json));

  auto histograms_json = json::Value::array();
  for (const HistogramSnapshot& h : histograms) {
    const bool det = h.reliability == Reliability::kDeterministic;
    if (deterministic_only && !det) {
      continue;
    }
    auto obj = json::Value::object();
    obj.set("name", h.name);
    obj.set("deterministic", det);
    obj.set("count", h.count);
    obj.set("min", h.min);
    obj.set("max", h.max);
    obj.set("p50", h.quantile(0.5));
    obj.set("p90", h.quantile(0.9));
    obj.set("p99", h.quantile(0.99));
    if (!deterministic_only) {
      // The floating-point sum (and therefore the mean) depends on how
      // samples were partitioned across shards: full view only.
      obj.set("sum", h.sum);
      obj.set("mean", h.mean());
    }
    histograms_json.push_back(std::move(obj));
  }
  root.set("histograms", std::move(histograms_json));
  return root;
}

void Snapshot::write_table(std::ostream& os) const {
  InstrumentTable table({"p50", "p90", "p99"});
  const auto kind_cell = [](const char* kind, Reliability r) {
    return r == Reliability::kWallClock ? std::string(kind) + "~"
                                        : std::string(kind);
  };
  for (const HistogramSnapshot& h : histograms) {
    table.add_distribution(kind_cell("histogram", h.reliability), h.name,
                           h.count, fmt_g(h.sum), fmt_g(h.mean()),
                           fmt_g(h.min), fmt_g(h.max),
                           {fmt_g(h.quantile(0.5)), fmt_g(h.quantile(0.9)),
                            fmt_g(h.quantile(0.99))});
  }
  for (const CounterSnapshot& c : counters) {
    table.add_value(kind_cell("counter", c.reliability), c.name, c.count,
                    fmt(static_cast<std::size_t>(c.total)));
  }
  for (const GaugeSnapshot& g : gauges) {
    table.add_value(kind_cell("gauge", g.reliability), g.name, g.updates,
                    fmt_g(g.value));
  }
  os << "metrics snapshot ("
     << counters.size() + gauges.size() + histograms.size()
     << " instruments; ~ = wall-clock, report-only)\n";
  table.print(os);
}

} // namespace dsem::metrics
