#include "serve/registry.hpp"

#include "common/error.hpp"

namespace dsem::serve {

void ModelRegistry::put(ModelArtifact artifact) {
  artifact.validate();
  auto entry = std::make_shared<const ModelArtifact>(std::move(artifact));
  std::lock_guard lock(mutex_);
  entries_[entry->key] = std::move(entry);
}

std::shared_ptr<const ModelArtifact>
ModelRegistry::get(const ModelKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const ModelArtifact>
ModelRegistry::require(const ModelKey& key) const {
  auto entry = get(key);
  DSEM_ENSURE(entry != nullptr,
              "registry: no model for " + key.to_string());
  return entry;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<ModelKey> ModelRegistry::keys() const {
  std::lock_guard lock(mutex_);
  std::vector<ModelKey> out;
  out.reserve(entries_.size());
  for (const auto& [key, _] : entries_) {
    out.push_back(key);
  }
  return out;
}

} // namespace dsem::serve
