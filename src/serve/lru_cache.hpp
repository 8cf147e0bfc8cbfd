// Deterministic LRU answer cache for the serving loop.
//
// Maps a quantized query key (serve/advisor.hpp builds it) to a computed
// answer. Eviction order depends only on the logical sequence of
// get/put calls — never on hashing or scheduling — so the cache contents
// after any request prefix are a pure function of that prefix (golden
// eviction-order tests pin this). Capacity 0 disables the cache: every
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

/// The cached payload: the advisor's answer for one (model, input,
/// budget) query.
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

class LruCache {
public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return map_.size(); }

  /// Looks `key` up; a hit refreshes its recency and writes the answer.
  bool get(const std::string& key, AdviseAnswer& out);

  /// Inserts (or refreshes) `key`. Evicts the least-recently-used entry
  /// when at capacity. No-op when capacity is 0.
  void put(const std::string& key, const AdviseAnswer& answer);

  void clear();

  /// Drops every entry whose key starts with `prefix`; returns the count.
  /// The serving loop uses this to invalidate one model's answers when a
  /// re-registration swaps the artifact behind its (app, device) key.
  std::size_t erase_prefix(const std::string& prefix);

  /// Keys from most- to least-recently used (golden eviction tests).
  std::vector<std::string> keys_mru() const;

private:
  std::size_t capacity_;
  /// Front = most recently used. Each node owns its key; list nodes never
  /// move, so the index can key on views into them.
  std::list<std::pair<std::string, AdviseAnswer>> order_;
  std::unordered_map<std::string_view, decltype(order_)::iterator> map_;
};

} // namespace dsem::serve
