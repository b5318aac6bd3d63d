#include "measure/fleet_scenario.h"

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
#include "measure/testbed.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"

namespace sc::measure {

namespace {

constexpr const char* kFleetHost = "scholar.google.com";
constexpr sim::Time kFetchTimeout = 15 * sim::kSecond;

struct FleetUser {
  std::unique_ptr<transport::HostStack> stack;
  sim::Rng rng;

  FleetUser(net::Node& node, sim::Rng rng_)
      : stack(std::make_unique<transport::HostStack>(node)),
        rng(std::move(rng_)) {}
};

}  // namespace

FleetCellResult runFleetCell(const FleetCellOptions& opt) {
  sim::Simulator sim(opt.seed);
  obs::Hub hub(sim);
  if (opt.tracing) hub.tracer().enable();
  net::Network network(sim);
  net::World world(network, calibratedWorld());

  // US resolver for the remote proxies (their queries stay US-side).
  auto& dns_node = world.addUsServer("us-dns");
  transport::HostStack dns_stack(dns_node);
  dns::DnsServer us_dns(dns_stack);
  const net::Ipv4 us_dns_ip = dns_node.primaryIp();

  // Origin: plain-HTTP scholar stand-in serving a cacheable page, so the
  // domestic cache can shave whole round trips off the border link.
  auto& origin_node = world.addUsServer("scholar-origin");
  transport::HostStack origin_stack(origin_node, 2.3e9);
  http::HttpServer origin(origin_stack, {});
  origin.setDefaultHandler([](const http::Request&,
                              http::HttpServer::Respond respond) {
    http::Response resp;
    resp.body = Bytes(2048, static_cast<std::uint8_t>('s'));
    resp.headers.set("content-type", "text/html");
    respond(std::move(resp));
  });
  us_dns.addRecord(kFleetHost, origin_node.primaryIp());

  // GFW on the border; scholar blocked for direct access, the domestic
  // proxy protected by ICP leniency (the paper's legalization story).
  gfw::Gfw gfw(network, calibratedGfw());
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_node.primaryIp());
  regulation::IcpRegistry registry;
  gfw.setIcpLookup([&registry](net::Ipv4 ip) {
    return registry.isRegistered(ip);
  });

  const Bytes secret = toBytes("scholarcloud-operator-secret");

  // Declared before the deployment (and thus the fleet) so the fleet's
  // destructor still sees live remote stacks while closing tunnels.
  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies;

  auto& domestic_node = world.addCampusServer("sc-domestic");
  transport::HostStack domestic_stack(domestic_node, 2.3e9);
  core::DomesticProxyOptions dom_opts;
  dom_opts.tunnel_secret = secret;  // remote stays zero: fleet-only mode
  dom_opts.whitelist = {kFleetHost};
  core::DomesticProxy proxy(domestic_stack, dom_opts, Testbed::kScTunnelTag);
  core::Deployment deployment(proxy);
  proxy.setIcpNumber(registry.approve(deployment.buildApplication()));

  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  fopts.tunnels_per_endpoint = opt.tunnels_per_endpoint;
  fopts.tunnel_secret = secret;
  fopts.enable_cache = opt.cache;
  fopts.autoscale = opt.autoscale;
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

  // Blocklist churn feeds straight into the prober (backoffs collapse).
  gfw.ips().setOnChange([&fl] { fl.onBlocklistChurn(); });

  // Churn driver: every interval the GFW "discovers" one live egress IP.
  FleetCellResult out;
  std::function<void()> churn = [&] {
    for (const net::Endpoint& ep : fl.liveEndpoints()) {
      if (gfw.ips().isBlocked(ep.ip, sim.now())) continue;
      gfw.ips().add(ep.ip, sim.now() + opt.block_duration);
      ++out.blocks_applied;
      break;
    }
    sim.schedule(opt.churn_interval, [&churn] { churn(); });
  };
  if (opt.churn_interval > 0)
    sim.schedule(opt.churn_interval, [&churn] { churn(); });

  // Users: fetch the whitelisted page through the proxy in a think-time
  // loop. Absolute-form GET on a raw connection — the PAC-configured
  // browser path is exercised end to end by the Testbed campaigns; here
  // the load generator stays minimal so the sweep measures the fleet.
  const net::Endpoint proxy_ep = proxy.proxyEndpoint();
  std::vector<std::unique_ptr<FleetUser>> users;
  std::function<void(FleetUser&)> fetch = [&](FleetUser& user) {
    FleetUser* u = &user;  // stable: users_ holds unique_ptrs
    ++out.attempts;
    const auto next = [&, u](bool ok) {
      if (ok) ++out.successes;
      const auto think =
          static_cast<sim::Time>(u->rng.exponential(
              static_cast<double>(opt.think_mean))) +
          sim::kMillisecond;
      sim.schedule(think, [&fetch, u] { fetch(*u); });
    };
    u->stack->tcpConnect(proxy_ep, [&, next](transport::TcpSocket::Ptr sock) {
      if (sock == nullptr) {
        next(false);
        return;
      }
      http::Request req;
      req.target = std::string("http://") + kFleetHost + "/";
      req.headers.set("host", kFleetHost);
      http::HttpClient::fetchOn(
          sock, sim, std::move(req), kFetchTimeout,
          [sock, next](std::optional<http::Response> resp) {
            sock->close();
            next(resp.has_value() && resp->status == 200);
          });
    });
  };
  for (int i = 0; i < opt.users; ++i) {
    auto& node =
        world.addCampusHost("fleet-user-" + std::to_string(i));
    users.push_back(std::make_unique<FleetUser>(
        node, sim.rng().fork(1000 + static_cast<std::uint64_t>(i))));
    FleetUser* u = users.back().get();
    const auto start = static_cast<sim::Time>(
        u->rng.exponential(static_cast<double>(sim::kSecond)));
    sim.schedule(start, [&fetch, u] { fetch(*u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio =
      out.attempts == 0
          ? 0.0
          : static_cast<double>(out.successes) / out.attempts;
  if (fl.cache() != nullptr) {
    out.cache_hits = fl.cache()->hits();
    out.cache_misses = fl.cache()->misses();
  }
  out.border_bytes = world.borderLink().bytesCarried(net::Direction::kAtoB) +
                     world.borderLink().bytesCarried(net::Direction::kBtoA);
  out.respawns = fl.respawns();
  out.failovers = fl.failovers();
  out.final_size = fl.size();
  std::ostringstream metrics;
  obs::writeMetricsJsonl(hub.registry(), metrics);
  out.metrics_jsonl = std::move(metrics).str();
  if (opt.tracing) {
    std::ostringstream trace;
    obs::writeTraceJsonl(hub.tracer(), trace);
    out.trace_jsonl = std::move(trace).str();
  }
  return out;
}

std::vector<FleetCellResult> runFleetCells(
    const std::vector<FleetCellOptions>& cells, unsigned threads) {
  std::vector<FleetCellResult> results(cells.size());
  ParallelRunner(threads).forEachIndex(cells.size(), [&](std::size_t i) {
    results[i] = runFleetCell(cells[i]);
  });
  return results;
}

}  // namespace sc::measure
