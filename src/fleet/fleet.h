// Fleet: a pool of RemoteProxy egress endpoints behind one domestic proxy.
//
// The paper's deployment is one domestic VM tunneling to a handful of remote
// proxies; this subsystem is the scale-out of that design (ROADMAP north
// star), borrowing CensorLess's observation that egress endpoints must be
// treated as ephemeral: when the GFW blocks or probe-confirms an egress IP,
// the endpoint is retired and a replacement is spawned on a fresh IP.
//
// Pieces, each separately testable:
//   - Balancer: weighted least-connections + per-client session affinity;
//   - HealthProber: sim-time tunnel pings, exponential backoff, kDown ->
//     retire + respawn (rotation);
//   - ShardedLruCache: domestic-side response cache (via core::ResponseCache);
//   - Autoscaler: registry-driven fleet sizing (optional).
//
// The Fleet implements core::TunnelProvider, so the domestic proxy delegates
// every stream open here without sc_core ever naming a fleet type. Spawning
// an endpoint is delegated to SpawnFn: the embedding world (scenario, test,
// Testbed) creates the node/stack/RemoteProxy and returns the tunnel
// endpoint — the fleet never builds topology.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_api.h"
#include "core/tunnel.h"
#include "fleet/autoscaler.h"
#include "fleet/balancer.h"
#include "fleet/cache.h"
#include "fleet/health.h"
#include "transport/host_stack.h"

namespace sc::fleet {

// What SpawnFn returns: a freshly provisioned remote proxy ready to accept
// tunnels. `seq` is the fleet-wide endpoint sequence number (also its
// balancer id), so respawns get new ids and new names.
struct EndpointSpawn {
  net::Endpoint endpoint;
  std::string name;
};

struct FleetOptions {
  int initial_size = 2;
  int tunnels_per_endpoint = 2;
  Bytes tunnel_secret;
  crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
  HealthProberOptions health;
  bool enable_cache = true;
  CacheOptions cache;
  bool autoscale = false;
  AutoscalerOptions autoscaler;
};

class Fleet final : public core::TunnelProvider {
 public:
  using SpawnFn = std::function<std::optional<EndpointSpawn>(int seq)>;

  // `stack` is the domestic proxy's host stack (tunnels dial from there);
  // `tag` labels tunnel packets for loss accounting.
  Fleet(transport::HostStack& stack, FleetOptions options, SpawnFn spawn,
        std::uint32_t tag = 0);
  ~Fleet() override;

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // ---- core::TunnelProvider ----
  void withStream(net::Ipv4 client, const transport::ConnectTarget& target,
                  bool passthrough, StreamHandler fn) override;
  void rotateBlinding(std::uint32_t new_epoch) override;
  core::ResponseCache* responseCache() override {
    return cache_ == nullptr ? nullptr : cache_.get();
  }

  // ---- churn & rotation ----
  // Wire to gfw.ips().setOnChange(...) (the embedding world does this so
  // sc_fleet never links sc_gfw): collapses every probe backoff to "now".
  void onBlocklistChurn() { prober_.probeAllNow(); }
  // Retires `id` (drains; no new picks) and, when `respawn` is set, spawns
  // a replacement on a fresh endpoint.
  void retireEndpoint(int id, bool respawn);
  // Chaos seam: the remote machine dies mid-flight. Every tunnel to `id` is
  // severed at once — no drain, no retire, no balancer update. Detection is
  // deliberately left to the prober (redials race probe failures), so
  // crash-to-respawn latency is a measured outcome, not a scripted one.
  // Pass id < 0 to crash the lowest live id. Returns false if nothing lives.
  bool crashEndpoint(int id);
  bool scaleUp();
  bool scaleDown();

  // ---- hybrid-population seam ----
  // A flow-level background access leases a balancer slot and counts into
  // the same sc.fleet.active_streams load the autoscaler reads — real
  // contention for the packet-level cohort — without dialing a tunnel.
  // Returns the leased backend id (release it when the modeled access
  // ends), or nullopt when no backend is available.
  std::optional<int> leaseBackgroundSlot(net::Ipv4 client);
  void releaseBackgroundSlot(int id);

  // ---- introspection ----
  int size() const { return static_cast<int>(endpoints_.size()); }
  std::vector<net::Endpoint> liveEndpoints() const;
  std::optional<int> endpointIdFor(net::Ipv4 ip) const;
  std::vector<core::Tunnel::Ptr> connectedTunnels() const;
  Health endpointHealth(int id) const { return prober_.state(id); }
  std::uint64_t respawns() const noexcept { return respawns_; }
  std::uint64_t failovers() const noexcept { return failovers_; }
  std::uint64_t activeStreams() const noexcept { return active_streams_; }
  Balancer& balancer() noexcept { return balancer_; }
  HealthProber& prober() noexcept { return prober_; }
  Autoscaler* autoscaler() noexcept { return autoscaler_.get(); }
  ShardedLruCache* cache() noexcept { return cache_.get(); }

 private:
  struct Endpoint {
    net::Endpoint remote;
    std::string name;
    std::vector<core::Tunnel::Ptr> tunnels;
    std::size_t next_tunnel = 0;
  };

  bool addEndpoint();
  void ensureTunnel(int id, std::size_t slot);
  core::Tunnel::Ptr connectedTunnel(Endpoint& ep);
  void probeEndpoint(int id, std::function<void(bool)> done);
  void onHealthChange(int id, Health from, Health to);
  void tryPick(net::Ipv4 client, transport::ConnectTarget target,
               bool passthrough, StreamHandler fn, int retries_left);
  void noteAcquire(int id);
  void noteRelease(int id);
  void trace(obs::EventType type, const char* what, const std::string& detail,
             std::int64_t a);

  transport::HostStack& stack_;
  FleetOptions options_;
  SpawnFn spawn_;
  std::uint32_t tag_;
  Balancer balancer_;
  HealthProber prober_;
  std::unique_ptr<ShardedLruCache> cache_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::map<int, Endpoint> endpoints_;
  int next_seq_ = 0;
  std::uint64_t respawns_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t active_streams_ = 0;

  obs::Gauge* g_active_ = nullptr;
  obs::Gauge* g_size_ = nullptr;
  obs::Counter* c_respawns_ = nullptr;
  obs::Counter* c_failovers_ = nullptr;
  // sc.domestic.pool_saturation: pick retries while no stream was available.
  obs::Counter* c_pool_saturation_ = nullptr;
};

}  // namespace sc::fleet
