#include "fleet/cache.h"

namespace sc::fleet {

ShardedLruCache::ShardedLruCache(sim::Simulator& sim, CacheOptions options)
    : sim_(sim), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.capacity_per_shard == 0) options_.capacity_per_shard = 1;
  shards_.resize(options_.shards);
  if (obs::Registry* reg = obs::registryOf(sim_)) {
    c_hits_ = reg->counter("sc.fleet.cache_hits");
    c_misses_ = reg->counter("sc.fleet.cache_misses");
    c_evictions_ = reg->counter("sc.fleet.cache_evictions");
  }
}

ShardedLruCache::Hit ShardedLruCache::lookup(core::CacheKey key) {
  const std::size_t si = shardOf(key);
  Shard& shard = shards_[si];
  const auto it = shard.index.find(key);
  Hit out;
  if (it != shard.index.end()) {
    if (it->second->expires > sim_.now()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      out = std::cref(it->second->response);
    } else {
      const auto entry = it->second;
      shard.index.erase(it);  // before the entry whose key it views
      shard.lru.erase(entry);
    }
  }
  const bool hit = out.has_value();
  if (hit) {
    ++hits_;
    if (c_hits_ != nullptr) c_hits_->inc();
  } else {
    ++misses_;
    if (c_misses_ != nullptr) c_misses_->inc();
  }
  if (obs::Tracer* tracer = obs::tracerOf(sim_)) {
    obs::Event ev;
    ev.at = sim_.now();
    ev.type = obs::EventType::kCacheLookup;
    ev.what = hit ? "hit" : "miss";
    ev.detail = std::string(key.text);
    ev.a = static_cast<std::int64_t>(si);
    tracer->record(std::move(ev));
  }
  return out;
}

void ShardedLruCache::insert(core::CacheKey key,
                             const http::Response& resp) {
  Shard& shard = shards_[shardOf(key)];
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->response = resp;
    it->second->expires = sim_.now() + options_.ttl;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= options_.capacity_per_shard) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(core::CacheKey(victim.key, victim.hash));
    shard.lru.pop_back();
    ++evictions_;
    if (c_evictions_ != nullptr) c_evictions_->inc();
  }
  shard.lru.push_front(Entry{std::string(key.text), key.hash, resp,
                             sim_.now() + options_.ttl});
  const Entry& entry = shard.lru.front();
  shard.index.emplace(core::CacheKey(entry.key, entry.hash),
                      shard.lru.begin());
}

std::size_t ShardedLruCache::entries() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.lru.size();
  return n;
}

}  // namespace sc::fleet
