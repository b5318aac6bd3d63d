// Fleet: a pool of RemoteProxy egress endpoints behind one domestic proxy.
//
// The paper's deployment is one domestic VM tunneling to a handful of remote
// proxies; this subsystem is the scale-out of that design (ROADMAP north
// star), borrowing CensorLess's observation that egress endpoints must be
// treated as ephemeral: when the GFW blocks or probe-confirms an egress IP,
// the endpoint is retired and a replacement is spawned on a fresh IP.
//
// It is the one tunnel pool: ScholarCloud's remote proxies (the Testbed's
// fleet of one, the fleet cells) and the serverless method's cloud
// functions are both Fleets. What differs is data the spawner hands back:
// a function endpoint names the SNI its TLS answers to, and its tunnels
// are dialed fronted (TCP, then a stock-fingerprint TLS handshake with that
// SNI, then the tunnel inside it).
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
// Testbed) or a spawn source (serverless::FunctionProvider) creates the
// node/stack/proxy and returns the tunnel endpoint — the fleet never builds
// topology, and knows nothing of what an endpoint costs.
//
// Retiring an endpoint either severs its tunnels (a kDown verdict, a
// scale-down) or drains them: the endpoint takes no new picks,
// and each tunnel closes when its last stream ends or at
// core::kProxiedRequestTimeout, whichever comes first (a scheduled reap).
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
#include "obs/span.h"
#include "transport/host_stack.h"

namespace sc::fleet {

// What SpawnFn returns: a freshly provisioned remote proxy ready to accept
// tunnels. `seq` is the fleet-wide endpoint sequence number (also its
// balancer id), so respawns get new ids and new names.
struct EndpointSpawn {
  net::Endpoint endpoint;
  std::string name;
  // The name the endpoint's TLS answers to. Empty: tunnels ride plain TCP
  // (a RemoteProxy). Set: every tunnel to it is dialed fronted, so the
  // border sees this SNI and a stock browser fingerprint, never the
  // endpoint's own name.
  std::string sni = {};
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
  // Told of every retire, before any replacement is spawned. `down` is
  // true when the health prober walked the endpoint to kDown (a ban).
  using RetireFn = std::function<void(int id, bool down)>;

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
  void setOnRetire(RetireFn fn) { on_retire_ = std::move(fn); }
  // Retires `id`: no new picks from now on. Its tunnels are cut at once,
  // or with `drain` left to finish their open streams. When `respawn` is
  // set, a replacement is spawned on a fresh endpoint.
  void retireEndpoint(int id, bool respawn, bool drain = false);
  // Chaos seam: the remote machine dies mid-flight. Every tunnel to `id` is
  // severed at once — no drain, no retire, no balancer update, and no
  // redial. Detection is left to the prober, so crash-to-respawn latency
  // is a measured outcome, not a scripted one.
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
  // Live endpoints' tunnels first, then any still draining.
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
    std::string sni;
    std::vector<core::Tunnel::Ptr> tunnels;
    std::size_t next_tunnel = 0;
  };

  bool addEndpoint();
  void ensureTunnel(int id, std::size_t slot);
  void onDialed(int id, std::size_t slot, obs::SpanId span,
                transport::Stream::Ptr wire);
  void retire(int id, bool respawn, bool drain, bool down);
  void drain(core::Tunnel::Ptr tunnel);
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
  // Tunnels of retired endpoints finishing their open streams.
  std::vector<core::Tunnel::Ptr> draining_;
  RetireFn on_retire_;
  // The last rotateBlinding epoch: every tunnel dialed later starts there.
  std::uint32_t blinding_epoch_ = 0;
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
  // Guards every callback the simulator may run after the fleet is gone
  // (dials, redials, pick retries, probe deadlines, drain deadlines): the
  // destructor clears it, and a late callback then touches nothing.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sc::fleet
