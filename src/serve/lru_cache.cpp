#include "serve/lru_cache.hpp"

#include <utility>

namespace dsem::serve {

template <class Value>
const Value* BasicLruCache<Value>::find(const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    return nullptr;
  }
  order_.splice(order_.begin(), order_, it->second);
  return &it->second->second;
}

template <class Value>
bool BasicLruCache<Value>::get(const std::string& key, Value& out) {
  const Value* const hit = find(key);
  if (hit == nullptr) {
    return false;
  }
  out = *hit;
  return true;
}

template <class Value>
void BasicLruCache<Value>::put(const std::string& key, Value value) {
  if (capacity_ == 0) {
    return;
  }
  if (const auto it = map_.find(key); it != map_.end()) {
    it->second->second = std::move(value);
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (map_.size() == capacity_) {
    map_.erase(order_.back().first);
    order_.pop_back();
  }
  order_.emplace_front(key, std::move(value));
  map_.emplace(order_.front().first, order_.begin());
}

template <class Value>
std::size_t BasicLruCache<Value>::erase_prefix(const std::string& prefix) {
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

template <class Value>
void BasicLruCache<Value>::clear() {
  map_.clear();
  order_.clear();
}

template <class Value>
std::vector<std::string> BasicLruCache<Value>::keys_mru() const {
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (const auto& [key, _] : order_) {
    out.push_back(key);
  }
  return out;
}

template class BasicLruCache<AdviseAnswer>;
template class BasicLruCache<ParetoFront>;

} // namespace dsem::serve
