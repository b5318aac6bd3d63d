// Sharded LRU response cache for the domestic proxy.
//
// Repeat Scholar fetches are the common case (the paper's users re-run
// queries and re-open result pages), and every forwarded GET costs a border
// crossing — the scarcest link in the whole system. Caching 200-responses on
// the domestic side means a repeat hit is served entirely inside China.
//
// Sharding: a core::CacheKey carries the key's FNV-1a hash (not std::hash —
// libstdc++/libc++ differ, and shard assignment must be identical everywhere
// for byte-identical runs), which picks one of `shards` independent LRU
// lists and then the bucket in that shard's index, so a key is hashed once.
// Each shard owns its own capacity, so one hot prefix cannot evict the
// whole cache, and a real multi-worker proxy would lock per shard — the
// structure mirrors that design even though the simulator is
// single-threaded.
//
// Entries expire after `ttl` of sim-time (Scholar results go stale);
// expired entries count as misses and are erased on touch. An insert copies
// the key's text into its entry; the index keys view that copy.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fleet_api.h"
#include "obs/hub.h"
#include "sim/simulator.h"

namespace sc::fleet {

struct CacheOptions {
  std::size_t shards = 8;
  std::size_t capacity_per_shard = 64;  // entries
  sim::Time ttl = 120 * sim::kSecond;
};

class ShardedLruCache final : public core::ResponseCache {
 public:
  ShardedLruCache(sim::Simulator& sim, CacheOptions options);

  // Splices a hit to the front of its shard's LRU and returns the stored
  // response; see core::ResponseCache for how long the reference lives.
  Hit lookup(core::CacheKey key) override;
  void insert(core::CacheKey key, const http::Response& resp) override;

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t entries() const;
  std::size_t shardOf(core::CacheKey key) const {
    return static_cast<std::size_t>(key.hash % shards_.size());
  }

 private:
  struct Entry {
    std::string key;
    std::uint64_t hash = 0;  // fnv1a(key)
    http::Response response;
    sim::Time expires = 0;
  };
  struct KeyHash {
    std::size_t operator()(const core::CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };
  struct KeyEq {
    bool operator()(const core::CacheKey& a,
                    const core::CacheKey& b) const noexcept {
      return a.text == b.text;
    }
  };
  // An index key views its Entry's `key`: list nodes never move, so the
  // view lives exactly as long as the entry it indexes.
  struct Shard {
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<core::CacheKey, std::list<Entry>::iterator, KeyHash,
                       KeyEq>
        index;
  };

  sim::Simulator& sim_;
  CacheOptions options_;
  std::vector<Shard> shards_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
};

}  // namespace sc::fleet
