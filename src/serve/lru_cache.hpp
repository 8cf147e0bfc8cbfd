// Deterministic LRU caches for the serving loop.
//
// One implementation, generic over the cached value, maps a text key to a
// payload. The serving loop keeps two: answers under their quantized
// query key (serve/advisor.hpp builds it) and Pareto fronts under their
// exact-input key. Eviction order depends only on the logical sequence of
// get/put calls — never on hashing or scheduling — so the cache contents
// after any request prefix are a pure function of that prefix (golden
// eviction-order tests pin this). Capacity 0 disables a cache: every
// lookup misses and put() is a no-op, bit-identical to a cache that never
// hits.
#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dsem::serve {

/// The answer cache's payload: the advisor's answer for one (model,
/// input, budget) query.
struct AdviseAnswer {
  double freq_mhz = 0.0;
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;
  double predicted_speedup = 0.0;
  double predicted_norm_energy = 0.0;
  /// True when the slowdown budget admitted no Pareto point, so the
  /// answer is the fastest front point rather than a within-budget one.
  bool budget_infeasible = false;

  bool operator==(const AdviseAnswer&) const = default;
};

/// One predicted Pareto-optimal frequency of an input: the clock and the
/// model's predicted time and energy there.
struct FrontPoint {
  double freq_mhz = 0.0;
  double time_s = 0.0;
  double energy_j = 0.0;
};

/// The front cache's payload: one input's predicted Pareto front, in
/// ascending speedup (core::pareto_front order), its points in one
/// exact-size allocation. It depends on the model and the exact input
/// alone; a slowdown budget only picks a point on it. A point's speedup
/// and normalized energy are not stored: they are the model's own
/// quotients over the stored operands (core::Prediction::base_time_s),
/// so they come back bit for bit.
struct ParetoFront {
  double base_time_s = 0.0;   ///< predicted time at the default clock
  double base_energy_j = 0.0; ///< predicted energy at the default clock
  std::vector<FrontPoint> points;

  double speedup(std::size_t i) const {
    return base_time_s / points[i].time_s;
  }
  double norm_energy(std::size_t i) const {
    return points[i].energy_j / base_energy_j;
  }
};

template <class Value>
class BasicLruCache {
public:
  explicit BasicLruCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return map_.size(); }

  /// Looks `key` up; a hit refreshes its recency and returns the cached
  /// value, valid until the next put, erase_prefix or clear. A miss
  /// returns null.
  const Value* find(const std::string& key);

  /// find() that copies a hit into `out`.
  bool get(const std::string& key, Value& out);

  /// Inserts (or refreshes) `key`. Evicts the least-recently-used entry
  /// when at capacity. No-op when capacity is 0.
  void put(const std::string& key, Value value);

  void clear();

  /// Drops every entry whose key starts with `prefix`; returns the count.
  /// The serving loop uses this to invalidate one model's entries when a
  /// re-registration swaps the artifact behind its (app, device) key.
  std::size_t erase_prefix(const std::string& prefix);

  /// Keys from most- to least-recently used (golden eviction tests).
  std::vector<std::string> keys_mru() const;

private:
  std::size_t capacity_;
  /// Front = most recently used. Each node owns its key; list nodes never
  /// move, so the index can key on views into them.
  std::list<std::pair<std::string, Value>> order_;
  std::unordered_map<std::string_view,
                     typename std::list<std::pair<std::string, Value>>::iterator>
      map_;
};

/// Quantized query key → answer.
using LruCache = BasicLruCache<AdviseAnswer>;
/// Exact-input key → predicted Pareto front.
using FrontCache = BasicLruCache<ParetoFront>;

extern template class BasicLruCache<AdviseAnswer>;
extern template class BasicLruCache<ParetoFront>;

} // namespace dsem::serve
