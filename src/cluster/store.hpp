// Key-value byte stores: volatile per-node host memory and persistent
// remote storage.
//
// Checkpoint engines address chunks with structured string keys
// ("ckpt/7/data/2"). Node stores are wiped by failure injection; the remote
// store survives (paper step 4: low-frequency flush to persistent storage
// guards against catastrophic loss).
#pragma once

#include <map>
#include <string>

#include "common/bytes.hpp"

namespace eccheck::cluster {

class Store {
 public:
  void put(const std::string& key, Buffer value) {
    entries_[key] = std::move(value);
  }

  bool contains(const std::string& key) const {
    return entries_.count(key) != 0;
  }

  /// Read-only view; throws if absent.
  const Buffer& get(const std::string& key) const {
    auto it = entries_.find(key);
    ECC_CHECK_MSG(it != entries_.end(), "store missing key '" << key << "'");
    return it->second;
  }

  /// The value itself, to change in place; throws if absent. The reference
  /// stays valid until the key is erased.
  Buffer& get_mutable(const std::string& key) {
    auto it = entries_.find(key);
    ECC_CHECK_MSG(it != entries_.end(), "store missing key '" << key << "'");
    return it->second;
  }

  /// Move the value out (erases the key); throws if absent.
  Buffer take(const std::string& key) {
    auto it = entries_.find(key);
    ECC_CHECK_MSG(it != entries_.end(), "store missing key '" << key << "'");
    Buffer b = std::move(it->second);
    entries_.erase(it);
    return b;
  }

  /// Re-key a value without copying its bytes; throws if `from` is absent
  /// or `to` is already present.
  void rename(const std::string& from, const std::string& to) {
    ECC_CHECK_MSG(!entries_.count(to),
                  "store already holds key '" << to << "'");
    auto node = entries_.extract(from);
    ECC_CHECK_MSG(!node.empty(), "store missing key '" << from << "'");
    node.key() = to;
    entries_.insert(std::move(node));
  }

  void erase(const std::string& key) { entries_.erase(key); }
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& [k, v] : entries_) n += v.size();
    return n;
  }

  /// Keys with the given prefix, sorted.
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const {
    std::vector<std::string> out;
    for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      out.push_back(it->first);
    }
    return out;
  }

 private:
  std::map<std::string, Buffer> entries_;
};

}  // namespace eccheck::cluster
