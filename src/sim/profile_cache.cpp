#include "sim/profile_cache.hpp"

#include <bit>

#include "common/metrics.hpp"

namespace dsem::sim {

std::size_t ProfileCache::KeyHash::operator()(const Key& key) const noexcept {
  // FNV-1a over the name bytes and the bit patterns of the doubles.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (char c : key.name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  for (double v : key.values) {
    mix(std::bit_cast<std::uint64_t>(v));
  }
  return static_cast<std::size_t>(h);
}

LaunchCost ProfileCache::lookup(const DeviceSpec& spec,
                                const KernelProfile& kernel,
                                std::size_t work_items, double core_mhz) {
  Key key;
  key.name = spec.name + '\0' + kernel.name;
  key.values = {kernel.int_add,      kernel.int_mul,
                kernel.int_div,      kernel.int_bw,
                kernel.float_add,    kernel.float_mul,
                kernel.float_div,    kernel.special_fn,
                kernel.global_bytes, kernel.local_bytes,
                kernel.intra_item_parallelism,
                static_cast<double>(work_items), core_mhz};
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      // Which concurrent first lookup wins is a scheduling accident, so
      // the hit/miss split is timing-dependent (report-only), matching
      // the SweepReport determinism contract.
      metrics::counter("cache.hits", 1, metrics::Reliability::kWallClock);
      return it->second;
    }
    ++misses_;
    metrics::counter("cache.misses", 1, metrics::Reliability::kWallClock);
  }
  // Compute outside the lock; a concurrent miss for the same key derives
  // the identical value, so whichever insert wins is correct.
  const LaunchCost cost = launch_cost(spec, kernel, work_items, core_mhz);
  std::lock_guard lock(mutex_);
  entries_.try_emplace(std::move(key), cost);
  return cost;
}

std::size_t ProfileCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::uint64_t ProfileCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t ProfileCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

} // namespace dsem::sim
