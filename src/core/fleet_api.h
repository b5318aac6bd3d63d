// Seams between the domestic proxy and the fleet subsystem.
//
// sc_fleet links sc_core (it dials Tunnels to RemoteProxy endpoints), so the
// domestic proxy cannot name fleet types directly without a cycle. Instead it
// talks to two abstract interfaces defined here and implemented one layer up:
//
//   - TunnelProvider: hands out proxied streams to a target. The domestic
//     proxy has no tunnels of its own: every stream it opens comes from the
//     installed provider, through its balancing, health state and failover.
//     Outside tests that is always a fleet::Fleet, the one tunnel pool: the
//     Testbed's ScholarCloud is a fleet of one endpoint, and the serverless
//     gateway a fleet of fronted cloud functions. The interface keeps
//     sc_core free of fleet types and lets tests substitute a fake.
//   - ResponseCache: a domestic-side response cache consulted before a GET
//     ever crosses the border link. fleet::ShardedLruCache implements it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"
#include "net/address.h"
#include "sim/time.h"
#include "transport/stream.h"
#include "util/hash.h"

namespace sc::core {

// How long the domestic proxy waits for the response to one proxied
// request. A provider that retires an egress on schedule lets the streams
// already on it run this long before it cuts them.
inline constexpr sim::Time kProxiedRequestTimeout = 40 * sim::kSecond;

// A response-cache key (host + path) carrying its FNV-1a hash, so a lookup
// hashes the text once: the hash picks the shard and the shard's bucket.
// The text is a view: the caller keeps it alive for the call, and the
// cache copies it on insert. A caller that reuses a key (the population
// engine's query catalog) passes a hash it computed earlier.
struct CacheKey {
  std::string_view text;
  std::uint64_t hash = 0;

  // Implicit, so a string or a literal passes wherever a key is expected.
  CacheKey(const std::string& key) noexcept : text(key), hash(fnv1a(key)) {}
  CacheKey(const char* key) noexcept : text(key), hash(fnv1a(text)) {}
  // `key_hash` must be fnv1a(key).
  constexpr CacheKey(std::string_view key, std::uint64_t key_hash) noexcept
      : text(key), hash(key_hash) {}
};

class ResponseCache {
 public:
  virtual ~ResponseCache() = default;

  // A hit: the stored response itself, not a copy. The reference stays
  // valid until the next lookup() or insert() on this cache (either may
  // overwrite, evict or expire the entry); copy it to keep or mutate it.
  using Hit = std::optional<std::reference_wrapper<const http::Response>>;

  // nullopt on miss or expiry.
  virtual Hit lookup(CacheKey key) = 0;
  virtual void insert(CacheKey key, const http::Response& resp) = 0;
};

class TunnelProvider {
 public:
  virtual ~TunnelProvider() = default;

  using StreamHandler = std::function<void(transport::Stream::Ptr)>;

  // Invokes `fn` with a stream to `target` through some healthy egress, or
  // nullptr when none could be found. `client` keys session affinity
  // (net::Ipv4{} when the peer is unknown); `passthrough` carries the usual
  // no-double-encryption flag through to Tunnel::openStream.
  virtual void withStream(net::Ipv4 client,
                          const transport::ConnectTarget& target,
                          bool passthrough, StreamHandler fn) = 0;

  // Re-keys the blinding layer of every live tunnel to `new_epoch`.
  virtual void rotateBlinding(std::uint32_t new_epoch) = 0;

  // Optional domestic-side response cache; nullptr when the provider does
  // not cache (the domestic proxy then always forwards).
  virtual ResponseCache* responseCache() { return nullptr; }
};

}  // namespace sc::core
