#include "serve/lru_cache.hpp"

namespace dsem::serve {

bool LruCache::get(const std::string& key, AdviseAnswer& out) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  order_.splice(order_.begin(), order_, it->second);
  out = it->second->second;
  return true;
}

void LruCache::put(const std::string& key, const AdviseAnswer& answer) {
  if (capacity_ == 0) {
    return;
  }
  if (const auto it = map_.find(key); it != map_.end()) {
    it->second->second = answer;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (map_.size() == capacity_) {
    map_.erase(order_.back().first);
    order_.pop_back();
  }
  order_.emplace_front(key, answer);
  map_.emplace(order_.front().first, order_.begin());
}

std::size_t LruCache::erase_prefix(const std::string& prefix) {
  std::size_t erased = 0;
  for (auto it = order_.begin(); it != order_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      map_.erase(it->first);
      it = order_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

void LruCache::clear() {
  map_.clear();
  order_.clear();
}

std::vector<std::string> LruCache::keys_mru() const {
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (const auto& [key, _] : order_) {
    out.push_back(key);
  }
  return out;
}

} // namespace dsem::serve
