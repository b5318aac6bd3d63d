#include "measure/chaos_scenario.h"

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "core/deployment.h"
#include "core/domestic_proxy.h"
#include "core/remote_proxy.h"
#include "dns/server.h"
#include "fleet/fleet.h"
#include "gfw/gfw.h"
#include "http/client.h"
#include "http/server.h"
#include "measure/calibration.h"
#include "measure/parallel.h"
#include "measure/serverless_scenario.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"

namespace sc::measure {

namespace {

constexpr const char* kChaosHost = "scholar.google.com";

// The one place a chaos cell reports an access attempt's fate; both world
// shapes funnel through here so the RecoveryTracker (and the exported
// trace) see identical event grammar regardless of method.
void traceAccess(sim::Simulator& sim, bool ok, sim::Time latency,
                 std::uint32_t tag) {
  obs::Tracer* tracer = obs::tracerOf(sim);
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = sim.now();
  ev.type = obs::EventType::kAccessOutcome;
  ev.what = ok ? "ok" : "fail";
  ev.tag = tag;
  ev.a = ok ? latency : -1;
  tracer->record(std::move(ev));
}

void fillAggregates(const chaos::RecoveryTracker& tracker,
                    ChaosCellResult& out) {
  out.faults = tracker.faults();
  out.impacted = tracker.impacted();
  out.recovered = tracker.recovered();
  out.unrecovered = tracker.unrecovered();
  out.mean_detect_s = tracker.meanDetectSeconds();
  out.mean_recover_s = tracker.meanRecoverSeconds();
  out.max_recover_s = tracker.maxRecoverSeconds();
  out.requests_lost = tracker.requestsLost();
  out.records = tracker.records();
}

// Baseline methods ride the full Testbed; the script can reach links and
// GFW policy but there is no fleet to heal, which is the comparison.
ChaosCellResult runTestbedCell(const ChaosCellOptions& opt) {
  TestbedOptions topt;
  topt.seed = opt.seed;
  topt.tracing = true;
  topt.trace_capacity = opt.trace_capacity;
  Testbed bed(topt);
  sim::Simulator& sim = bed.sim();

  chaos::RecoveryTracker tracker(sim, opt.script);
  tracker.attachTo(bed.hub().tracer());

  chaos::LinkInjector link_inj(bed.network());
  // Default: no egress resolver — a baseline method's endpoint is not in
  // the "egress" rotation (symbolic bans trace as unhandled, charging the
  // method nothing); policy faults are what kill baselines. With
  // ban_method_endpoint set, "egress" resolves to the method's GFW-visible
  // border IP instead, so a per-endpoint ban wave lands exactly once (the
  // set is static: later bans find nothing un-banned and go unhandled).
  chaos::GfwInjector::IpResolver resolver;
  if (opt.ban_method_endpoint) {
    resolver = [&bed, method = opt.method](const std::string& target)
        -> std::optional<net::Ipv4> {
      if (target != "egress") return std::nullopt;
      net::Ipv4 ip{};
      switch (method) {
        case Method::kShadowsocks: ip = bed.ssRemoteIp(); break;
        case Method::kTor: ip = bed.torCdnIp(); break;
        default: return std::nullopt;
      }
      if (bed.gfw().ips().isBlocked(ip, bed.sim().now()))
        return std::nullopt;  // already banned: the static set is exhausted
      return ip;
    };
  }
  chaos::GfwInjector gfw_inj(bed.gfw(), std::move(resolver));
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  ChaosCellResult out;
  std::function<void(Testbed::Client*)> cycle = [&](Testbed::Client* c) {
    ++out.attempts;
    c->browser->loadPage(kChaosHost, [&, c](http::PageLoadResult r) {
      if (r.ok) ++out.successes;
      traceAccess(sim, r.ok, r.plt, c->tag);
      sim.schedule(opt.access_interval, [&cycle, c] { cycle(c); });
    });
  };
  for (int i = 0; i < opt.users; ++i) {
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    // `ready` may fire before addClient returns the reference, so the start
    // is deferred through a shared slot filled right after construction.
    auto self = std::make_shared<Testbed::Client*>(nullptr);
    Testbed::Client& c = bed.addClient(
        opt.method, 100 + static_cast<std::uint32_t>(i),
        [&, self, stagger](bool ready) {
          if (!ready) return;
          sim.schedule(stagger, [&cycle, self] {
            if (*self != nullptr) cycle(*self);
          });
        });
    *self = &c;
  }

  sim.runUntil(opt.duration);

  out.success_ratio =
      out.attempts == 0 ? 0.0
                        : static_cast<double>(out.successes) / out.attempts;
  fillAggregates(tracker, out);
  std::ostringstream metrics;
  obs::writeMetricsJsonl(bed.hub().registry(), metrics);
  out.metrics_jsonl = std::move(metrics).str();
  std::ostringstream trace;
  obs::writeTraceJsonl(bed.hub().tracer(), trace);
  out.trace_jsonl = std::move(trace).str();
  return out;
}

struct ChaosUser {
  std::unique_ptr<transport::HostStack> stack;
  explicit ChaosUser(net::Node& node)
      : stack(std::make_unique<transport::HostStack>(node)) {}
};

// The fleet-backed ScholarCloud world (fleet_scenario's shape) with all
// four injectors armed. "egress" resolves to the first live, not-yet-banned
// endpoint at fire time — the GFW discovering an IP it can see.
ChaosCellResult runFleetChaosCell(const ChaosCellOptions& opt) {
  sim::Simulator sim(opt.seed);
  obs::Hub hub(sim);
  hub.tracer().enable(opt.trace_capacity);
  net::Network network(sim);
  net::World world(network, calibratedWorld());

  chaos::RecoveryTracker tracker(sim, opt.script);
  tracker.attachTo(hub.tracer());

  auto& dns_node = world.addUsServer("us-dns");
  transport::HostStack dns_stack(dns_node);
  dns::DnsServer us_dns(dns_stack);
  const net::Ipv4 us_dns_ip = dns_node.primaryIp();

  auto& origin_node = world.addUsServer("scholar-origin");
  transport::HostStack origin_stack(origin_node, 2.3e9);
  http::HttpServer origin(origin_stack, {});
  origin.setDefaultHandler(
      [](const http::Request&, http::HttpServer::Respond respond) {
        http::Response resp;
        resp.body = Bytes(2048, static_cast<std::uint8_t>('s'));
        resp.headers.set("content-type", "text/html");
        respond(std::move(resp));
      });
  us_dns.addRecord(kChaosHost, origin_node.primaryIp());

  gfw::Gfw gfw(network, calibratedGfw());
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_node.primaryIp());
  regulation::IcpRegistry registry;
  gfw.setIcpLookup(
      [&registry](net::Ipv4 ip) { return registry.isRegistered(ip); });

  const Bytes secret = toBytes("scholarcloud-operator-secret");

  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies;

  auto& domestic_node = world.addCampusServer("sc-domestic");
  transport::HostStack domestic_stack(domestic_node, 2.3e9);
  core::DomesticProxyOptions dom_opts;
  dom_opts.tunnel_secret = secret;  // remote stays zero: fleet-only mode
  dom_opts.whitelist = {kChaosHost};
  core::DomesticProxy proxy(domestic_stack, dom_opts, Testbed::kScTunnelTag);
  core::Deployment deployment(proxy);
  proxy.setIcpNumber(registry.approve(deployment.buildApplication()));

  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  fopts.tunnel_secret = secret;
  const net::Ipv4 domestic_ip = domestic_node.primaryIp();
  auto spawn = [&world, &remote_stacks, &remote_proxies, us_dns_ip,
                domestic_ip, secret](int seq)
      -> std::optional<fleet::EndpointSpawn> {
    const std::string name = "fleet-remote-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    core::RemoteProxyOptions ropts;
    ropts.tunnel_secret = secret;
    ropts.dns_server = us_dns_ip;
    ropts.authorized_peers = {domestic_ip};
    remote_proxies.push_back(
        std::make_unique<core::RemoteProxy>(*stack, ropts));
    remote_stacks.push_back(std::move(stack));
    return fleet::EndpointSpawn{net::Endpoint{node.primaryIp(), 443}, name};
  };
  auto& fl = deployment.spawnFleet<fleet::Fleet>(
      domestic_stack, fopts, spawn, Testbed::kScTunnelTag);
  gfw.ips().setOnChange([&fl] { fl.onBlocklistChurn(); });

  chaos::LinkInjector link_inj(network);
  chaos::GfwInjector gfw_inj(
      gfw, [&fl, &gfw, &sim](const std::string& target)
               -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (const net::Endpoint& ep : fl.liveEndpoints())
          if (!gfw.ips().isBlocked(ep.ip, sim.now())) return ep.ip;
        return std::nullopt;
      });
  chaos::FleetInjector fleet_inj(fl);
  chaos::DnsInjector dns_inj(us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&fleet_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  ChaosCellResult out;
  const net::Endpoint proxy_ep = proxy.proxyEndpoint();
  std::vector<std::unique_ptr<ChaosUser>> users;
  std::function<void(ChaosUser&)> fetch = [&](ChaosUser& user) {
    ChaosUser* u = &user;  // stable: users holds unique_ptrs
    ++out.attempts;
    const sim::Time started = sim.now();
    const auto next = [&, u, started](bool ok) {
      if (ok) ++out.successes;
      traceAccess(sim, ok, sim.now() - started, Testbed::kScTunnelTag);
      sim.schedule(opt.access_interval, [&fetch, u] { fetch(*u); });
    };
    u->stack->tcpConnect(proxy_ep, [&, next](transport::TcpSocket::Ptr sock) {
      if (sock == nullptr) {
        next(false);
        return;
      }
      http::Request req;
      req.target = std::string("http://") + kChaosHost + "/";
      req.headers.set("host", kChaosHost);
      http::HttpClient::fetchOn(
          sock, sim, std::move(req), opt.fetch_timeout,
          [sock, next](std::optional<http::Response> resp) {
            sock->close();
            next(resp.has_value() && resp->status == 200);
          });
    });
  };
  for (int i = 0; i < opt.users; ++i) {
    auto& node = world.addCampusHost("chaos-user-" + std::to_string(i));
    users.push_back(std::make_unique<ChaosUser>(node));
    ChaosUser* u = users.back().get();
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    sim.schedule(stagger, [&fetch, u] { fetch(*u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio =
      out.attempts == 0 ? 0.0
                        : static_cast<double>(out.successes) / out.attempts;
  out.respawns = fl.respawns();
  fillAggregates(tracker, out);
  std::ostringstream metrics;
  obs::writeMetricsJsonl(hub.registry(), metrics);
  out.metrics_jsonl = std::move(metrics).str();
  std::ostringstream trace;
  obs::writeTraceJsonl(hub.tracer(), trace);
  out.trace_jsonl = std::move(trace).str();
  return out;
}

}  // namespace

ChaosCellResult runChaosCell(const ChaosCellOptions& options) {
  if (options.method == Method::kServerless) {
    // The serverless method has its own world (serverless_scenario); adapt
    // the generic cell options and fold the richer result back down.
    ServerlessCellOptions sopt;
    sopt.seed = options.seed;
    sopt.users = options.users;
    sopt.script = options.script;
    sopt.duration = options.duration;
    sopt.access_interval = options.access_interval;
    sopt.fetch_timeout = options.fetch_timeout;
    sopt.trace_capacity = options.trace_capacity;
    const ServerlessCellResult sr = runServerlessCell(sopt);
    ChaosCellResult out;
    out.attempts = sr.attempts;
    out.successes = sr.successes;
    out.success_ratio = sr.success_ratio;
    out.faults = sr.faults;
    out.impacted = sr.impacted;
    out.recovered = sr.recovered;
    out.unrecovered = sr.unrecovered;
    out.mean_detect_s = sr.mean_detect_s;
    out.mean_recover_s = sr.mean_recover_s;
    out.max_recover_s = sr.max_recover_s;
    out.requests_lost = sr.requests_lost;
    // "Respawns" here = spawns beyond the initial pre-warm fill.
    out.respawns = sr.spawns > static_cast<std::uint64_t>(sopt.prewarm)
                       ? sr.spawns - static_cast<std::uint64_t>(sopt.prewarm)
                       : 0;
    out.records = sr.records;
    out.metrics_jsonl = sr.metrics_jsonl;
    out.trace_jsonl = sr.trace_jsonl;
    return out;
  }
  if (options.method == Method::kScholarCloud && options.fleet)
    return runFleetChaosCell(options);
  return runTestbedCell(options);
}

std::vector<ChaosCellResult> runChaosCells(
    const std::vector<ChaosCellOptions>& cells, unsigned threads) {
  std::vector<ChaosCellResult> results(cells.size());
  ParallelRunner(threads).forEachIndex(cells.size(), [&](std::size_t i) {
    results[i] = runChaosCell(cells[i]);
  });
  return results;
}

}  // namespace sc::measure
