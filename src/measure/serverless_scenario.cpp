#include "measure/serverless_scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "core/domestic_proxy.h"
#include "dns/server.h"
#include "gfw/gfw.h"
#include "http/client.h"
#include "http/server.h"
#include "measure/calibration.h"
#include "measure/parallel.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"
#include "serverless/cost.h"
#include "serverless/dispatcher.h"
#include "serverless/provider.h"
#include "serverless/runtime.h"

namespace sc::measure {

namespace {

constexpr const char* kHost = "scholar.google.com";

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

struct CellUser {
  std::unique_ptr<transport::HostStack> stack;
  explicit CellUser(net::Node& node)
      : stack(std::make_unique<transport::HostStack>(node)) {}
};

}  // namespace

ServerlessCellResult runServerlessCell(const ServerlessCellOptions& opt) {
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
  us_dns.addRecord(kHost, origin_node.primaryIp());

  gfw::Gfw gfw(network, calibratedGfw());
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_node.primaryIp());
  regulation::IcpRegistry registry;
  gfw.setIcpLookup(
      [&registry](net::Ipv4 ip) { return registry.isRegistered(ip); });

  const Bytes secret = toBytes("serverless-dispatch-secret");

  // Dispatcher gateway: provider-only domestic proxy, deliberately NOT ICP
  // registered — the method's protection budget is endpoint churn, not
  // leniency (the gray-market contrast with ScholarCloud).
  auto& gateway_node = world.addCampusServer("fn-gateway");
  transport::HostStack gateway_stack(gateway_node, 2.3e9);
  core::DomesticProxyOptions gw_opts;
  gw_opts.tunnel_secret = secret;  // remote stays zero: provider-only mode
  gw_opts.whitelist = {kHost};
  core::DomesticProxy gateway(gateway_stack, gw_opts,
                              Testbed::kServerlessTunnelTag);

  serverless::CostModel cost(sim);

  std::vector<std::unique_ptr<transport::HostStack>> fn_stacks;
  std::vector<std::unique_ptr<serverless::FunctionRuntime>> fn_runtimes;
  auto spawn = [&world, &fn_stacks, &fn_runtimes, us_dns_ip,
                secret](int seq) -> std::optional<serverless::FunctionSpawn> {
    const std::string name = "fn-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    serverless::RuntimeOptions ropts;
    ropts.cert_name = Testbed::kFrontDomain;
    ropts.tunnel_secret = secret;
    ropts.dns_server = us_dns_ip;
    fn_runtimes.push_back(
        std::make_unique<serverless::FunctionRuntime>(*stack, ropts));
    fn_stacks.push_back(std::move(stack));
    return serverless::FunctionSpawn{net::Endpoint{node.primaryIp(), 443},
                                     name};
  };

  serverless::ProviderOptions popts;
  popts.prewarm = opt.prewarm;
  popts.max_live = opt.max_live;
  popts.ttl = opt.ttl;
  popts.respawn = opt.respawn;
  serverless::FunctionProvider provider(sim, popts, spawn, &cost,
                                        Testbed::kServerlessTunnelTag);

  serverless::DispatcherOptions dopts;
  dopts.front_domain = Testbed::kFrontDomain;
  dopts.tunnel_secret = secret;
  serverless::FrontedDispatcher dispatcher(gateway_stack, dopts, provider,
                                           &cost,
                                           Testbed::kServerlessTunnelTag);
  gateway.setTunnelProvider(&dispatcher);
  gfw.ips().setOnChange([&dispatcher] { dispatcher.onBlocklistChurn(); });

  chaos::LinkInjector link_inj(network);
  // "egress" resolves to the first warm, not-yet-banned endpoint IP at fire
  // time — the GFW discovering an IP it can see traffic to.
  chaos::GfwInjector gfw_inj(
      gfw, [&provider, &gfw, &sim](const std::string& target)
               -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (int id : provider.readyIds()) {
          const auto* ep = provider.get(id);
          if (ep != nullptr && !gfw.ips().isBlocked(ep->remote.ip, sim.now()))
            return ep->remote.ip;
        }
        return std::nullopt;
      });
  chaos::DnsInjector dns_inj(us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  sim::Time last_fault_at = 0;
  for (const chaos::FaultEvent& ev : opt.script.events())
    last_fault_at = std::max(last_fault_at, ev.at);

  ServerlessCellResult out;
  const net::Endpoint gateway_ep = gateway.proxyEndpoint();
  std::vector<std::unique_ptr<CellUser>> users;
  std::function<void(CellUser&)> fetch = [&](CellUser& user) {
    CellUser* u = &user;  // stable: users holds unique_ptrs
    ++out.attempts;
    const sim::Time started = sim.now();
    const bool after_wave = started > last_fault_at;
    if (after_wave) ++out.attempts_after_last_fault;
    const auto next = [&, u, started, after_wave](bool ok) {
      if (ok) {
        ++out.successes;
        if (after_wave) ++out.successes_after_last_fault;
      }
      traceAccess(sim, ok, sim.now() - started, Testbed::kServerlessTunnelTag);
      sim.schedule(opt.access_interval, [&fetch, u] { fetch(*u); });
    };
    u->stack->tcpConnect(gateway_ep, [&, next](transport::TcpSocket::Ptr sock) {
      if (sock == nullptr) {
        next(false);
        return;
      }
      http::Request req;
      req.target = std::string("http://") + kHost + "/";
      req.headers.set("host", kHost);
      http::HttpClient::fetchOn(
          sock, sim, std::move(req), opt.fetch_timeout,
          [sock, next](std::optional<http::Response> resp) {
            sock->close();
            next(resp.has_value() && resp->status == 200);
          });
    });
  };
  for (int i = 0; i < opt.users; ++i) {
    auto& node = world.addCampusHost("fn-user-" + std::to_string(i));
    users.push_back(std::make_unique<CellUser>(node));
    CellUser* u = users.back().get();
    const sim::Time stagger = (i + 1) * 250 * sim::kMillisecond;
    sim.schedule(stagger, [&fetch, u] { fetch(*u); });
  }

  sim.runUntil(opt.duration);

  out.success_ratio =
      out.attempts == 0 ? 0.0
                        : static_cast<double>(out.successes) / out.attempts;
  cost.publish();
  out.endpoint_seconds = cost.endpointSeconds();
  out.cost_units = cost.totalCost();
  out.invocations = cost.invocations();
  out.spawns = cost.spawns();
  out.cold_starts = cost.coldStarts();
  out.bans = cost.bans();
  out.reaps = provider.reaps();
  out.cold_start_max_ms = cost.coldStartMaxMs();
  out.cold_start_mean_ms = cost.coldStartMeanMs();
  out.final_live = provider.liveCount();
  out.final_connected = dispatcher.connectedCount();
  out.border_bytes =
      network.tagStats(Testbed::kServerlessTunnelTag).bytes_originated;

  out.faults = tracker.faults();
  out.impacted = tracker.impacted();
  out.recovered = tracker.recovered();
  out.unrecovered = tracker.unrecovered();
  out.mean_detect_s = tracker.meanDetectSeconds();
  out.mean_recover_s = tracker.meanRecoverSeconds();
  out.max_recover_s = tracker.maxRecoverSeconds();
  out.requests_lost = tracker.requestsLost();
  out.records = tracker.records();

  std::ostringstream metrics;
  obs::writeMetricsJsonl(hub.registry(), metrics);
  out.metrics_jsonl = std::move(metrics).str();
  std::ostringstream trace;
  obs::writeTraceJsonl(hub.tracer(), trace);
  out.trace_jsonl = std::move(trace).str();
  return out;
}

std::vector<ServerlessCellResult> runServerlessCells(
    const std::vector<ServerlessCellOptions>& cells, unsigned threads) {
  std::vector<ServerlessCellResult> results(cells.size());
  ParallelRunner(threads).forEachIndex(cells.size(), [&](std::size_t i) {
    results[i] = runServerlessCell(cells[i]);
  });
  return results;
}

}  // namespace sc::measure
