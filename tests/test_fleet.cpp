#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/deployment.h"
#include "core/domestic_proxy.h"
#include "core/remote_proxy.h"
#include "dns/server.h"
#include "fleet/fleet.h"
#include "gfw/gfw.h"
#include "helpers.h"
#include "http/client.h"
#include "http/server.h"
#include "measure/fleet_scenario.h"
#include "measure/parallel.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"
#include "transport/host_stack.h"
#include "util/hash.h"

namespace sc::fleet {
namespace {

// ---- Balancer ------------------------------------------------------------

TEST(Balancer, LeastConnectionsWithSmallestIdTieBreak) {
  Balancer b;
  b.addBackend(0);
  b.addBackend(1);
  b.addBackend(2);
  const net::Ipv4 anon{};
  EXPECT_EQ(b.pick(anon), std::optional<int>(0));  // all idle: smallest id
  EXPECT_EQ(b.pick(anon), std::optional<int>(1));
  EXPECT_EQ(b.pick(anon), std::optional<int>(2));
  b.release(1);
  EXPECT_EQ(b.pick(anon), std::optional<int>(1));  // now the least loaded
}

TEST(Balancer, WeightsBiasTowardHeavierBackends) {
  Balancer b;
  b.addBackend(0, 2.0);
  b.addBackend(1, 1.0);
  const net::Ipv4 anon{};
  EXPECT_EQ(b.pick(anon), std::optional<int>(0));  // 0/2 == 0/1, tie -> 0
  EXPECT_EQ(b.pick(anon), std::optional<int>(1));  // 0.5 vs 0
  EXPECT_EQ(b.pick(anon), std::optional<int>(0));  // 0.5 vs 1
  EXPECT_EQ(b.active(0), 2);
  EXPECT_EQ(b.active(1), 1);
}

TEST(Balancer, AffinityPinsAndSurvivesLoadImbalance) {
  Balancer b;
  b.addBackend(0);
  b.addBackend(1);
  const net::Ipv4 client(10, 3, 1, 5);
  EXPECT_EQ(b.pick(client), std::optional<int>(0));
  b.release(0);
  // Load up backend 0 with anonymous picks: the pinned client still goes
  // there — session affinity beats least-connections.
  EXPECT_EQ(b.pick(net::Ipv4{}), std::optional<int>(0));
  EXPECT_EQ(b.pick(client), std::optional<int>(0));
}

TEST(Balancer, AffinityDropsWhenBackendLeaves) {
  Balancer b;
  b.addBackend(0);
  b.addBackend(1);
  const net::Ipv4 client(10, 3, 1, 6);
  EXPECT_EQ(b.pick(client), std::optional<int>(0));
  b.setAvailable(0, false);  // degraded: pin dropped, new picks re-pin
  EXPECT_EQ(b.pick(client), std::optional<int>(1));
  b.setAvailable(0, true);
  EXPECT_EQ(b.pick(client), std::optional<int>(1));  // stays re-pinned
  b.removeBackend(1);
  EXPECT_EQ(b.pick(client), std::optional<int>(0));
}

TEST(Balancer, NoAvailableBackendMeansNullopt) {
  Balancer b;
  EXPECT_EQ(b.pick(net::Ipv4{}), std::nullopt);
  b.addBackend(0);
  b.setAvailable(0, false);
  EXPECT_EQ(b.pick(net::Ipv4{}), std::nullopt);
  EXPECT_EQ(b.availableCount(), 0u);
}

// ---- ShardedLruCache -----------------------------------------------------

http::Response okResponse(const std::string& body) {
  http::Response r;
  r.status = 200;
  r.body = toBytes(body);
  return r;
}

TEST(Cache, MissThenHitThenLruEviction) {
  sim::Simulator sim(1);
  CacheOptions opts;
  opts.shards = 1;
  opts.capacity_per_shard = 2;
  ShardedLruCache cache(sim, opts);

  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", okResponse("body-a"));
  cache.insert("b", okResponse("body-b"));
  const auto hit = cache.lookup("a");  // touches a: b becomes the LRU entry
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get().body, toBytes("body-a"));
  cache.insert("c", okResponse("body-c"));  // capacity 2: evicts b
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(Cache, EntriesExpireAfterTtl) {
  sim::Simulator sim(1);
  CacheOptions opts;
  opts.ttl = 10 * sim::kSecond;
  ShardedLruCache cache(sim, opts);
  cache.insert("k", okResponse("v"));
  EXPECT_TRUE(cache.lookup("k").has_value());
  sim.schedule(11 * sim::kSecond, [] {});
  sim.runUntil(11 * sim::kSecond);
  EXPECT_FALSE(cache.lookup("k").has_value());  // stale: erased on touch
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(Cache, LookupReturnsTheStoredEntryNotACopy) {
  sim::Simulator sim(1);
  obs::Hub hub(sim);
  hub.tracer().enable();
  CacheOptions opts;
  opts.ttl = 10 * sim::kSecond;
  ShardedLruCache cache(sim, opts);
  cache.insert("k", okResponse(std::string(2048, 'a')));

  const auto first = cache.lookup("k");
  const auto second = cache.lookup("k");
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(&first->get(), &second->get());  // both name the stored entry
  EXPECT_EQ(first->get().body, toBytes(std::string(2048, 'a')));

  // A same-key insert overwrites the entry in place: the next hit carries
  // the new body from the same storage.
  cache.insert("k", okResponse("fresh"));
  const auto third = cache.lookup("k");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(&third->get(), &first->get());
  EXPECT_EQ(third->get().body, toBytes("fresh"));

  EXPECT_FALSE(cache.lookup("absent").has_value());
  sim.schedule(11 * sim::kSecond, [] {});
  sim.runUntil(11 * sim::kSecond);
  EXPECT_FALSE(cache.lookup("k").has_value());  // expired: a miss, erased

  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 0u);
  obs::Registry& reg = hub.registry();
  EXPECT_EQ(reg.counter("sc.fleet.cache_hits")->value(), 3u);
  EXPECT_EQ(reg.counter("sc.fleet.cache_misses")->value(), 2u);

  std::vector<std::string> seen;
  for (const obs::Event& ev : hub.tracer().events()) {
    ASSERT_EQ(ev.type, obs::EventType::kCacheLookup);
    EXPECT_EQ(ev.a, static_cast<std::int64_t>(cache.shardOf(ev.detail)));
    seen.push_back(std::string(ev.what) + " " + ev.detail);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"hit k", "hit k", "hit k",
                                            "miss absent", "miss k"}));
}

TEST(Cache, ShardAssignmentIsStableAndBounded) {
  sim::Simulator sim(1);
  CacheOptions opts;
  opts.shards = 8;
  ShardedLruCache cache(sim, opts);
  const auto s1 = cache.shardOf("scholar.google.com/");
  EXPECT_EQ(s1, cache.shardOf("scholar.google.com/"));
  EXPECT_LT(s1, 8u);
  // FNV-1a, not std::hash: shard assignment is part of the deterministic
  // contract (offset basis 14695981039346656037 % 8 == 5).
  EXPECT_EQ(cache.shardOf(""), 5u);
}

// A key built from a string hashes its text; one built from (text, hash)
// takes the hash as given. Both must land in the same shard and find the
// same entry, through LRU eviction and TTL expiry, which erase index
// entries through the stored hash.
TEST(Cache, PrecomputedKeyMatchesStringKey) {
  sim::Simulator sim(1);
  CacheOptions opts;
  opts.shards = 3;
  opts.capacity_per_shard = 2;
  opts.ttl = 10 * sim::kSecond;
  ShardedLruCache by_string(sim, opts);
  ShardedLruCache by_hash(sim, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i)
    keys.push_back("scholar.google.com/scholar?q=q" + std::to_string(i));
  const auto precomputed = [](const std::string& k) {
    return core::CacheKey(std::string_view(k), fnv1a(k));
  };

  std::string trace_string, trace_hash;
  const auto lookupAll = [&] {
    for (const std::string& k : keys) {
      ASSERT_EQ(by_string.shardOf(k), by_hash.shardOf(precomputed(k))) << k;
      trace_string += by_string.lookup(k).has_value() ? 'h' : 'm';
      trace_hash += by_hash.lookup(precomputed(k)).has_value() ? 'h' : 'm';
    }
  };
  const auto insertRange = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      by_string.insert(keys[i], okResponse(keys[i]));
      by_hash.insert(precomputed(keys[i]), okResponse(keys[i]));
    }
  };
  const auto advance = [&](sim::Time dt) {
    sim.schedule(dt, [] {});
    sim.runUntil(sim.now() + dt);
  };

  insertRange(0, 8);  // 8 keys into 3 shards of 2: evictions
  lookupAll();
  advance(6 * sim::kSecond);
  insertRange(8, 12);
  lookupAll();
  advance(6 * sim::kSecond);  // the first batch is past its TTL
  lookupAll();
  insertRange(0, 12);  // re-insert over erased and expired slots
  lookupAll();

  EXPECT_EQ(trace_string, trace_hash);
  EXPECT_NE(trace_string.find('h'), std::string::npos);
  EXPECT_NE(trace_string.find('m'), std::string::npos);
  EXPECT_GT(by_string.evictions(), 0u);
  EXPECT_EQ(by_string.evictions(), by_hash.evictions());
  EXPECT_EQ(by_string.hits(), by_hash.hits());
  EXPECT_EQ(by_string.misses(), by_hash.misses());
  EXPECT_EQ(by_string.entries(), by_hash.entries());
  for (const std::string& k : keys) {
    const auto a = by_string.lookup(k);
    const auto b = by_hash.lookup(precomputed(k));
    ASSERT_EQ(a.has_value(), b.has_value()) << k;
    if (a.has_value()) {
      EXPECT_EQ(a->get().body, b->get().body) << k;
    }
  }
}

// ---- HealthProber --------------------------------------------------------

TEST(Health, FailuresBackOffThenDownThenRecovery) {
  sim::Simulator sim(1);
  HealthProberOptions opts;  // interval 2s, base 1s, threshold 3
  bool probe_ok = false;
  HealthProber prober(sim, opts,
                      [&](int, std::function<void(bool)> done) {
                        done(probe_ok);
                      });
  std::vector<std::pair<Health, sim::Time>> transitions;
  prober.setOnStateChange([&](int, Health, Health to) {
    transitions.push_back({to, sim.now()});
  });
  prober.watch(7);
  EXPECT_EQ(prober.state(7), Health::kUnknown);

  sim.runUntil(6 * sim::kSecond);
  // Probes at 2s (fail -> kDegraded), 3s, 5s (3rd failure -> kDown);
  // backoff doubles: 1s, 2s, then 4s.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].first, Health::kDegraded);
  EXPECT_EQ(transitions[0].second, 2 * sim::kSecond);
  EXPECT_EQ(transitions[1].first, Health::kDown);
  EXPECT_EQ(transitions[1].second, 5 * sim::kSecond);
  EXPECT_EQ(prober.consecutiveFailures(7), 3);

  probe_ok = true;
  sim.runUntil(10 * sim::kSecond);  // next probe at 9s succeeds
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[2].first, Health::kHealthy);
  EXPECT_EQ(transitions[2].second, 9 * sim::kSecond);
  EXPECT_EQ(prober.consecutiveFailures(7), 0);
}

TEST(Health, ProbeNowCollapsesTheBackoff) {
  sim::Simulator sim(1);
  HealthProberOptions opts;
  opts.backoff_max = 300 * sim::kSecond;
  int probes = 0;
  HealthProber prober(sim, opts, [&](int, std::function<void(bool)> done) {
    ++probes;
    done(false);
  });
  prober.watch(0);
  sim.runUntil(6 * sim::kSecond);  // three failures in
  const int before = probes;
  prober.probeAllNow();  // blocklist churn: don't wait out the backoff
  sim.runUntil(6 * sim::kSecond + 10);
  EXPECT_EQ(probes, before + 1);
}

TEST(Health, RewatchCancelsStaleBackoffChain) {
  // Regression: watch() on an already-watched id (a respawn reusing the id)
  // used to leave the previous backoff-scheduled probe armed. That stale
  // probe read the *current* generation at fire time, so two probe chains
  // ran side by side — doubled traffic and backoff state dragged across
  // endpoint lives. Re-watching must behave exactly like a fresh watch.
  sim::Simulator sim(1);
  HealthProberOptions opts;  // interval 2s, base 1s, threshold 3
  opts.backoff_max = 300 * sim::kSecond;
  int probes = 0;
  bool probe_ok = false;
  HealthProber prober(sim, opts, [&](int, std::function<void(bool)> done) {
    ++probes;
    done(probe_ok);
  });
  prober.watch(3);
  sim.runUntil(6 * sim::kSecond);  // failures at 2s, 3s, 5s -> kDown
  EXPECT_EQ(prober.state(3), Health::kDown);
  EXPECT_EQ(probes, 3);  // next probe would fire at 9s (4s backoff)

  // The endpoint respawns healthy and is re-watched under the same id.
  probe_ok = true;
  prober.watch(3);
  EXPECT_EQ(prober.state(3), Health::kUnknown);
  EXPECT_EQ(prober.consecutiveFailures(3), 0);

  // Exactly one probe in the next interval window: at 8s (6s + interval),
  // from the fresh chain. The stale backoff chain's 9s firing must be gone.
  sim.runUntil(9 * sim::kSecond + 500 * sim::kMillisecond);
  EXPECT_EQ(probes, 4);
  EXPECT_EQ(prober.state(3), Health::kHealthy);

  // Steady state stays single-chain: one probe per interval.
  const int at_steady = probes;
  sim.runUntil(13 * sim::kSecond + 500 * sim::kMillisecond);
  EXPECT_EQ(probes, at_steady + 2);  // 10s and 12s
}

TEST(Health, UnwatchStopsProbing) {
  sim::Simulator sim(1);
  int probes = 0;
  HealthProber prober(sim, {}, [&](int, std::function<void(bool)> done) {
    ++probes;
    done(true);
  });
  prober.watch(0);
  sim.runUntil(3 * sim::kSecond);
  EXPECT_EQ(probes, 1);
  prober.unwatch(0);
  sim.runUntil(60 * sim::kSecond);
  EXPECT_EQ(probes, 1);
  EXPECT_EQ(prober.state(0), Health::kUnknown);  // forgotten entirely
}

// ---- Autoscaler ----------------------------------------------------------

TEST(Autoscaler, ScalesWithinBoundsOnLoad) {
  sim::Simulator sim(1);
  obs::Hub hub(sim);
  auto* gauge = obs::registryOf(sim)->gauge("sc.fleet.active_streams");
  AutoscalerOptions opts;
  opts.min_size = 1;
  opts.max_size = 3;
  opts.cooldown = 0;
  int size = 2;
  Autoscaler as(sim, opts, [&] { return size; },
                [&](int delta) { size += delta; });

  gauge->set(20);  // 10 per endpoint >> high watermark 4
  as.tick();
  EXPECT_EQ(size, 3);
  as.tick();
  EXPECT_EQ(size, 3);  // clamped at max_size
  gauge->set(0.5);     // 0.17 per endpoint < low watermark 1
  as.tick();
  EXPECT_EQ(size, 2);
  as.tick();
  as.tick();
  EXPECT_EQ(size, 1);  // clamped at min_size
  EXPECT_EQ(as.scaleUps(), 1u);
  EXPECT_EQ(as.scaleDowns(), 2u);
}

TEST(Autoscaler, CooldownLimitsStepRate) {
  sim::Simulator sim(1);
  obs::Hub hub(sim);
  auto* gauge = obs::registryOf(sim)->gauge("sc.fleet.active_streams");
  AutoscalerOptions opts;
  opts.cooldown = 30 * sim::kSecond;
  int size = 1;
  Autoscaler as(sim, opts, [&] { return size; },
                [&](int delta) { size += delta; });
  gauge->set(100);
  as.tick();
  EXPECT_EQ(size, 2);  // first step is free
  as.tick();
  EXPECT_EQ(size, 2);  // inside the cooldown window
  sim.schedule(35 * sim::kSecond, [] {});
  sim.runUntil(35 * sim::kSecond);
  as.tick();
  EXPECT_EQ(size, 3);
}

// ---- Fleet in a world ----------------------------------------------------

constexpr const char* kHost = "scholar.google.com";

// Minimal fleet deployment: domestic proxy in fleet-only mode, endpoints
// spawned onto fresh US IPs, GFW on the border with ICP leniency for the
// domestic VM. The shape of measure::FleetDeployment on a CellWorld
// (cell_world.h), but with its own node names and the default GFW config,
// and every object visible to the test.
struct FleetWorld {
  sim::Simulator sim;
  obs::Hub hub{sim};
  net::Network network{sim};
  net::World world{network};
  net::Node& dns_node{world.addUsServer("us-dns")};
  transport::HostStack dns_stack{dns_node};
  dns::DnsServer dns{dns_stack};
  net::Node& origin_node{world.addUsServer("origin")};
  transport::HostStack origin_stack{origin_node};
  http::HttpServer origin{origin_stack, {}};
  gfw::Gfw gfw{network, {}};
  regulation::IcpRegistry registry;
  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies;
  net::Node& domestic_node{world.addCampusServer("sc-domestic")};
  transport::HostStack domestic_stack{domestic_node};
  std::unique_ptr<core::DomesticProxy> proxy;
  std::unique_ptr<core::Deployment> deployment;
  Fleet* fl = nullptr;
  net::Node& client_node{world.addCampusHost("client")};
  transport::HostStack client{client_node};

  explicit FleetWorld(std::uint64_t seed = 7, int fleet_size = 2) : sim(seed) {
    dns.addRecord(kHost, origin_node.primaryIp());
    origin.setDefaultHandler(
        [](const http::Request&, http::HttpServer::Respond respond) {
          http::Response resp;
          resp.body = toBytes("fleet origin page");
          respond(std::move(resp));
        });
    gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
    gfw.domains().add("google.com");
    gfw.setIcpLookup(
        [this](net::Ipv4 ip) { return registry.isRegistered(ip); });

    const Bytes secret = toBytes("operator-secret");
    core::DomesticProxyOptions dopts;
    dopts.whitelist = {kHost};
    proxy = std::make_unique<core::DomesticProxy>(domestic_stack, dopts);
    deployment = std::make_unique<core::Deployment>(*proxy);
    proxy->setIcpNumber(registry.approve(deployment->buildApplication()));

    FleetOptions fopts;
    fopts.initial_size = fleet_size;
    fopts.tunnel_secret = secret;
    const net::Ipv4 us_dns_ip = dns_node.primaryIp();
    const net::Ipv4 domestic_ip = domestic_node.primaryIp();
    fl = &deployment->spawnFleet<Fleet>(
        domestic_stack, fopts,
        [this, us_dns_ip, domestic_ip,
         secret](int seq) -> std::optional<EndpointSpawn> {
          const std::string name = "fleet-remote-" + std::to_string(seq);
          auto& node = world.addUsServer(name);
          auto stack = std::make_unique<transport::HostStack>(node);
          core::RemoteProxyOptions ropts;
          ropts.tunnel_secret = secret;
          ropts.dns_server = us_dns_ip;
          ropts.authorized_peers = {domestic_ip};
          remote_proxies.push_back(
              std::make_unique<core::RemoteProxy>(*stack, ropts));
          remote_stacks.push_back(std::move(stack));
          return EndpointSpawn{net::Endpoint{node.primaryIp(), 443}, name};
        });
    gfw.ips().setOnChange([this] { fl->onBlocklistChurn(); });
  }

  // One whitelisted absolute-form GET through the proxy, started now. State
  // lives on the heap: if a deadline fires first, late callbacks must not
  // touch a dead stack frame.
  struct Fetch {
    std::optional<http::Response> result;
    bool done = false;
  };
  std::shared_ptr<Fetch> startFetch() {
    auto st = std::make_shared<Fetch>();
    sim::Simulator& s = sim;
    client.tcpConnect(
        proxy->proxyEndpoint(), [&s, st](const auto& conn) {
          const bool ok = conn != nullptr;
          if (!ok) {
            st->done = true;
            return;
          }
          http::Request req;
          req.target = std::string("http://") + kHost + "/";
          req.headers.set("host", kHost);
          http::HttpClient::fetchOn(
              conn, s, std::move(req), 15 * sim::kSecond,
              [st, sock = conn](std::optional<http::Response> resp) {
                sock->close();
                st->result = std::move(resp);
                st->done = true;
              });
        });
    return st;
  }

  std::optional<http::Response> fetchOnce(
      sim::Time budget = 30 * sim::kSecond) {
    const auto st = startFetch();
    EXPECT_TRUE(
        sim.runWhile([st] { return st->done; }, sim.now() + budget));
    return st->result;
  }

  void runFor(sim::Time span) {
    sim.schedule(span, [] {});
    sim.runUntil(sim.now() + span);
  }
};

TEST(Fleet, ServesWhitelistedFetchThroughSpawnedEndpoints) {
  FleetWorld w;
  w.runFor(3 * sim::kSecond);  // tunnels dial
  EXPECT_EQ(w.fl->size(), 2);
  const auto resp = w.fetchOnce();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, toBytes("fleet origin page"));
  w.runFor(sim::kSecond);  // let the close propagate through the mux
  EXPECT_EQ(w.fl->activeStreams(), 0u);  // lease released on close
}

TEST(Fleet, RepeatGetIsServedFromTheDomesticCache) {
  FleetWorld w;
  w.runFor(3 * sim::kSecond);
  ASSERT_TRUE(w.fetchOnce().has_value());
  const auto second = w.fetchOnce();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->headers.get("x-cache"), std::optional<std::string>("hit"));
  EXPECT_EQ(w.proxy->cacheHits(), 1u);
  ASSERT_NE(w.fl->cache(), nullptr);
  EXPECT_EQ(w.fl->cache()->hits(), 1u);
  EXPECT_EQ(w.fl->cache()->misses(), 1u);
}

TEST(Fleet, BlockedEndpointIsReplacedWithoutDisturbingOtherFlows) {
  FleetWorld w;
  w.runFor(3 * sim::kSecond);
  ASSERT_TRUE(w.fetchOnce().has_value());  // pins the client to endpoint 0

  // The GFW blocks the OTHER endpoint's egress IP mid-run.
  const auto live = w.fl->liveEndpoints();
  ASSERT_EQ(live.size(), 2u);
  const net::Ipv4 blocked_ip = live[1].ip;
  w.gfw.ips().add(blocked_ip);

  // The pinned client's flow is untouched while the probes catch up.
  for (int i = 0; i < 3; ++i) {
    const auto resp = w.fetchOnce();
    ASSERT_TRUE(resp.has_value()) << "fetch " << i << " during churn";
    EXPECT_EQ(resp->status, 200);
    w.runFor(2 * sim::kSecond);
  }

  // Rotation: blocked endpoint retired, replacement spawned on a fresh IP.
  EXPECT_TRUE(w.sim.runWhile([&] { return w.fl->respawns() >= 1; },
                             w.sim.now() + 60 * sim::kSecond));
  EXPECT_EQ(w.fl->size(), 2);
  EXPECT_FALSE(w.fl->endpointIdFor(blocked_ip).has_value());
  const auto refreshed = w.fl->liveEndpoints();
  ASSERT_EQ(refreshed.size(), 2u);
  EXPECT_NE(refreshed[0].ip.v, blocked_ip.v);
  EXPECT_NE(refreshed[1].ip.v, blocked_ip.v);
  EXPECT_GE(w.fl->respawns(), 1u);

  // And the replacement serves: new fetches still succeed.
  EXPECT_TRUE(w.sim.runWhile(
      [&] {
        const auto id = w.fl->endpointIdFor(refreshed[1].ip);
        return id.has_value() &&
               w.fl->endpointHealth(*id) == Health::kHealthy;
      },
      w.sim.now() + 30 * sim::kSecond));
  const auto resp = w.fetchOnce();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
}

TEST(Fleet, BlindingRotationReKeysEveryFleetTunnel) {
  FleetWorld w;
  w.runFor(3 * sim::kSecond);
  w.proxy->rotateBlinding(5);
  EXPECT_EQ(w.proxy->blindingEpoch(), 5u);
  const auto tunnels = w.fl->connectedTunnels();
  ASSERT_EQ(tunnels.size(), 4u);  // two endpoints, two tunnels each
  for (const auto& tunnel : tunnels) EXPECT_EQ(tunnel->blindingEpoch(), 5u);
  const auto resp = w.fetchOnce();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);

  // Tunnels dialed after the rotation come up at its epoch, too.
  ASSERT_TRUE(w.fl->crashEndpoint(-1));
  // The crashed endpoint is not redialed in place: the prober retires it,
  // and its replacement dials two fresh tunnels.
  ASSERT_TRUE(w.sim.runWhile(
      [&] { return w.fl->connectedTunnels().size() == 4u; },
      w.sim.now() + 30 * sim::kSecond));
  const auto redialed = w.fl->connectedTunnels();
  ASSERT_EQ(redialed.size(), 4u);
  for (const auto& tunnel : redialed) EXPECT_EQ(tunnel->blindingEpoch(), 5u);
  const auto again = w.fetchOnce();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 200);
}

// Retires endpoint 0 of a one-endpoint fleet while a fetch rides one of its
// tunnels, and returns that fetch once it ended.
std::shared_ptr<FleetWorld::Fetch> retireUnderAFetch(FleetWorld& w,
                                                     bool drain) {
  w.runFor(3 * sim::kSecond);
  auto fetch = w.startFetch();
  EXPECT_TRUE(w.sim.runWhile([&] { return w.fl->activeStreams() > 0; },
                             w.sim.now() + 10 * sim::kSecond));
  EXPECT_FALSE(fetch->done);
  w.fl->retireEndpoint(0, /*respawn=*/false, drain);
  EXPECT_EQ(w.fl->size(), 0);
  EXPECT_TRUE(w.sim.runWhile([&] { return fetch->done; },
                             w.sim.now() + 30 * sim::kSecond));
  return fetch;
}

TEST(Fleet, DrainingRetireLetsAnOpenStreamFinishThenCloses) {
  FleetWorld w(7, 1);
  const auto fetch = retireUnderAFetch(w, /*drain=*/true);
  ASSERT_TRUE(fetch->result.has_value());
  EXPECT_EQ(fetch->result->status, 200);
  w.runFor(sim::kSecond);  // the stream's close reaches the tunnel
  EXPECT_TRUE(w.fl->connectedTunnels().empty());
}

TEST(Fleet, SeveringRetireCutsAnOpenStream) {
  FleetWorld w(7, 1);
  const auto fetch = retireUnderAFetch(w, /*drain=*/false);
  EXPECT_FALSE(fetch->result.has_value() && fetch->result->status == 200);
  EXPECT_TRUE(w.fl->connectedTunnels().empty());
}

TEST(Fleet, DestroyedWithDialsInFlightIsSafe) {
  FleetWorld w;
  // Tunnels mid-dial, probes armed, and a pick waiting on a retry: the
  // fleet dies with all of them still queued in the simulator.
  bool handed = false;
  w.fl->withStream(net::Ipv4{},
                   transport::ConnectTarget::byHostname(kHost, 80),
                   /*passthrough=*/false,
                   [&](transport::Stream::Ptr) { handed = true; });
  ASSERT_FALSE(handed);
  w.deployment.reset();
  w.fl = nullptr;
  w.runFor(30 * sim::kSecond);
  EXPECT_FALSE(handed);
  // With its provider gone the proxy answers a proxied GET with 502.
  const auto resp = w.fetchOnce();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 502);
}

TEST(Fleet, ManualScaleUpAndDown) {
  FleetWorld w(7, 1);
  w.runFor(2 * sim::kSecond);
  EXPECT_EQ(w.fl->size(), 1);
  EXPECT_TRUE(w.fl->scaleUp());
  EXPECT_EQ(w.fl->size(), 2);
  EXPECT_TRUE(w.fl->scaleDown());
  EXPECT_EQ(w.fl->size(), 1);
}

// ---- scenario determinism (satellite: same-seed trace comparison) --------

std::uint64_t digestOf(const measure::FleetCellResult& r) {
  return test::cellDigest(r.metrics_jsonl, r.trace_jsonl, r.attempts,
                          r.successes, r.success_ratio, r.cache_hits,
                          r.cache_misses, r.border_bytes, r.respawns,
                          r.failovers, r.blocks_applied, r.final_size);
}

TEST(FleetScenario, SameSeedProducesByteIdenticalTraces) {
  measure::FleetCellOptions cell;
  cell.users = 2;
  cell.fleet_size = 2;
  cell.duration = 30 * sim::kSecond;
  cell.tracing = true;
  const auto a = measure::runFleetCell(cell);
  const auto b = measure::runFleetCell(cell);
  EXPECT_GT(a.attempts, 0);
  EXPECT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.border_bytes, b.border_bytes);
  // Golden: the same bytes on the wire, the same metrics and the same trace
  // as the world this cell has always built.
  EXPECT_EQ(digestOf(a), 0x4ecd2395b29ad86dULL) << std::hex << digestOf(a);
}

TEST(FleetScenario, CacheAndAutoscalerCellGolden) {
  measure::FleetCellOptions cell;
  cell.users = 3;
  cell.fleet_size = 1;
  cell.cache = true;
  cell.autoscale = true;
  cell.churn_interval = 10 * sim::kSecond;
  cell.duration = 40 * sim::kSecond;
  cell.tracing = true;
  const auto r = measure::runFleetCell(cell);
  EXPECT_GT(r.cache_hits, 0u);
  EXPECT_GT(r.successes, 0);
  EXPECT_EQ(digestOf(r), 0x79f67151a2e9863bULL) << std::hex << digestOf(r);
}

TEST(FleetScenario, ResultsAreByteIdenticalAcrossThreadCounts) {
  std::vector<measure::FleetCellOptions> cells;
  for (int size = 1; size <= 3; ++size) {
    measure::FleetCellOptions c;
    c.users = 2;
    c.fleet_size = size;
    c.duration = 25 * sim::kSecond;
    c.tracing = true;
    cells.push_back(c);
  }
  const auto serial = measure::runCells(cells, 1, measure::runFleetCell);
  const auto parallel = measure::runCells(cells, 4, measure::runFleetCell);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << i;
    EXPECT_EQ(serial[i].successes, parallel[i].successes) << i;
    EXPECT_EQ(serial[i].border_bytes, parallel[i].border_bytes) << i;
    EXPECT_EQ(serial[i].cache_hits, parallel[i].cache_hits) << i;
    EXPECT_EQ(serial[i].metrics_jsonl, parallel[i].metrics_jsonl) << i;
    EXPECT_EQ(serial[i].trace_jsonl, parallel[i].trace_jsonl) << i;
  }
}

TEST(FleetScenario, ChurnCausesRespawnsAndServiceSurvives) {
  measure::FleetCellOptions cell;
  cell.users = 3;
  cell.fleet_size = 2;
  cell.churn_interval = 10 * sim::kSecond;
  cell.duration = 60 * sim::kSecond;
  const auto r = measure::runFleetCell(cell);
  EXPECT_GE(r.blocks_applied, 3u);
  EXPECT_GE(r.respawns, 1u);
  EXPECT_GT(r.attempts, 0);
  EXPECT_GT(r.success_ratio, 0.8);
  EXPECT_EQ(r.final_size, 2);
}

}  // namespace
}  // namespace sc::fleet
