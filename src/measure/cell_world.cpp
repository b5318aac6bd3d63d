#include "measure/cell_world.h"

#include <optional>
#include <sstream>
#include <utility>

#include "http/client.h"
#include "measure/calibration.h"
#include "measure/testbed.h"
#include "obs/export.h"

namespace sc::measure {

CellWorld::CellWorld(std::uint64_t seed, bool tracing,
                     std::size_t trace_capacity)
    : sim(seed),
      hub(sim),
      network(sim),
      world(network, calibratedWorld()),
      dns_stack(world.addUsServer("us-dns")),
      us_dns(dns_stack),
      origin_stack(world.addUsServer("scholar-origin"), 2.3e9),
      origin(origin_stack, {}),
      gfw(network, calibratedGfw()) {
  if (tracing) hub.tracer().enable(trace_capacity);

  // A plain-HTTP scholar stand-in serving a cacheable page, so a domestic
  // cache can shave whole round trips off the border link.
  origin.setDefaultHandler(
      [](const http::Request&, http::HttpServer::Respond respond) {
        http::Response resp;
        resp.body = Bytes(2048, static_cast<std::uint8_t>('s'));
        resp.headers.set("content-type", "text/html");
        respond(std::move(resp));
      });
  const net::Ipv4 origin_ip = origin_stack.node().primaryIp();
  us_dns.addRecord(Testbed::kScholarHost, origin_ip);

  // Scholar blocked for direct access; a registered domestic proxy is
  // protected by ICP leniency (the paper's legalization story).
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_ip);
  gfw.setIcpLookup(
      [this](net::Ipv4 ip) { return registry.isRegistered(ip); });
}

namespace {

Bytes fleetSecret() { return toBytes("scholarcloud-operator-secret"); }

Bytes serverlessSecret() { return toBytes("serverless-dispatch-secret"); }

// A domestic proxy whitelisting the cell's one host; its tunnels come from
// the fleet installed next.
core::DomesticProxyOptions scholarOnlyOptions() {
  core::DomesticProxyOptions opts;
  opts.whitelist = {Testbed::kScholarHost};
  return opts;
}

}  // namespace

FleetDeployment::FleetDeployment(CellWorld& cw, const std::string& prefix,
                                 fleet::FleetOptions options)
    : domestic_stack_(cw.world.addCampusServer("sc-domestic"), 2.3e9),
      proxy(domestic_stack_, scholarOnlyOptions(), Testbed::kScTunnelTag),
      deployment(proxy),
      fleet(approveAndSpawn(cw, prefix, std::move(options))) {}

fleet::Fleet& FleetDeployment::approveAndSpawn(CellWorld& cw,
                                               const std::string& prefix,
                                               fleet::FleetOptions options) {
  proxy.setIcpNumber(cw.registry.approve(deployment.buildApplication()));

  options.tunnel_secret = fleetSecret();
  auto spawn = [this, &world = cw.world, prefix, us_dns_ip = cw.usDnsIp(),
                domestic_ip = domestic_stack_.node().primaryIp()](int seq)
      -> std::optional<fleet::EndpointSpawn> {
    const std::string name = prefix + "-remote-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    core::RemoteProxyOptions ropts;
    ropts.tunnel_secret = fleetSecret();
    ropts.dns_server = us_dns_ip;
    ropts.authorized_peers = {domestic_ip};
    remote_proxies_.push_back(
        std::make_unique<core::RemoteProxy>(*stack, ropts));
    remote_stacks_.push_back(std::move(stack));
    return fleet::EndpointSpawn{net::Endpoint{node.primaryIp(), 443}, name};
  };
  auto& fl = deployment.spawnFleet<fleet::Fleet>(
      domestic_stack_, std::move(options), spawn, Testbed::kScTunnelTag);
  // Blocklist churn feeds straight into the prober (backoffs collapse).
  cw.gfw.ips().setOnChange([&fl] { fl.onBlocklistChurn(); });
  return fl;
}

namespace {

serverless::FunctionProvider::ProvisionFn functionProvisioner(
    net::World& world,
    std::vector<std::unique_ptr<transport::HostStack>>& stacks,
    std::vector<std::unique_ptr<serverless::FunctionRuntime>>& runtimes,
    serverless::CostModel& cost, net::Ipv4 us_dns_ip,
    crypto::BlindingMode blinding_mode) {
  return [&world, &stacks, &runtimes, &cost, us_dns_ip, blinding_mode](
             int seq, sim::Time warm_at) -> std::optional<fleet::EndpointSpawn> {
    const std::string name = "fn-" + std::to_string(seq);
    auto& node = world.addUsServer(name);
    auto stack = std::make_unique<transport::HostStack>(node, 2.3e9);
    serverless::RuntimeOptions ropts;
    ropts.cert_name = Testbed::kFrontDomain;
    ropts.tunnel_secret = serverlessSecret();
    ropts.blinding_mode = blinding_mode;
    ropts.dns_server = us_dns_ip;
    runtimes.push_back(std::make_unique<serverless::FunctionRuntime>(
        *stack, ropts, warm_at, &cost));
    stacks.push_back(std::move(stack));
    return fleet::EndpointSpawn{net::Endpoint{node.primaryIp(), ropts.port},
                                name, ropts.cert_name};
  };
}

// One fronted tunnel per function, no domestic cache (endpoints are
// ephemeral, and a shared cache is the ScholarCloud fleet's trade), and a
// ban verdict after two failed probes.
fleet::FleetOptions functionFleetOptions(int prewarm,
                                         crypto::BlindingMode blinding_mode) {
  fleet::FleetOptions opts;
  opts.initial_size = prewarm;
  opts.tunnels_per_endpoint = 1;
  opts.tunnel_secret = serverlessSecret();
  opts.blinding_mode = blinding_mode;
  opts.health.fail_threshold = 2;
  opts.enable_cache = false;
  return opts;
}

}  // namespace

// The gateway sits on the campus like the ScholarCloud proxy but is
// deliberately NOT ICP-registered — the gray-market contrast: the method's
// protection is per-endpoint churn, not leniency.
ServerlessDeployment::ServerlessDeployment(
    net::World& world, gfw::Gfw& gfw, net::Ipv4 us_dns_ip,
    const serverless::ProviderOptions& provider_options,
    crypto::BlindingMode blinding_mode)
    : gateway_stack_(world.addCampusServer("fn-gateway"), 2.3e9),
      gateway(gateway_stack_, scholarOnlyOptions(),
              Testbed::kServerlessTunnelTag),
      cost(world.network().sim()),
      provider(world.network().sim(), provider_options,
               functionProvisioner(world, fn_stacks_, fn_runtimes_, cost,
                                   us_dns_ip, blinding_mode),
               &cost, Testbed::kServerlessTunnelTag),
      fleet(gateway_stack_,
            functionFleetOptions(provider_options.prewarm, blinding_mode),
            [this](int seq) { return provider.spawn(seq); },
            Testbed::kServerlessTunnelTag) {
  provider.serve(fleet);
  gateway.setTunnelProvider(&fleet);
  // Blocklist churn collapses ban-detection latency to one probe RTT.
  gfw.ips().setOnChange([this] { fleet.onBlocklistChurn(); });
}

FetchLoop::FetchLoop(CellWorld& cw, net::Endpoint proxy, sim::Time timeout,
                     std::function<void()> on_attempt, OnDone on_done)
    : cw_(cw),
      proxy_(proxy),
      timeout_(timeout),
      on_attempt_(std::move(on_attempt)),
      on_done_(std::move(on_done)) {}

void FetchLoop::addUser(const std::string& name, sim::Time first) {
  stacks_.push_back(
      std::make_unique<transport::HostStack>(cw_.world.addCampusHost(name)));
  cw_.sim.schedule(first, [this, user = stacks_.size() - 1] { attempt(user); });
}

void FetchLoop::attempt(std::size_t user) {
  on_attempt_();
  const auto finish = [this, user, started = cw_.sim.now()](bool ok) {
    cw_.sim.schedule(on_done_(user, ok, started),
                     [this, user] { attempt(user); });
  };
  stacks_[user]->tcpConnect(proxy_, [this, finish](
                                        transport::TcpSocket::Ptr sock) {
    if (sock == nullptr) {
      finish(false);
      return;
    }
    http::Request req;
    req.target = std::string("http://") + Testbed::kScholarHost + "/";
    req.headers.set("host", Testbed::kScholarHost);
    http::HttpClient::fetchOn(
        sock, cw_.sim, std::move(req), timeout_,
        [sock, finish](std::optional<http::Response> resp) {
          sock->close();
          finish(resp.has_value() && resp->status == 200);
        });
  });
}

void RecoveryReadout::readFrom(const chaos::RecoveryTracker& tracker) {
  faults = tracker.faults();
  impacted = tracker.impacted();
  recovered = tracker.recovered();
  unrecovered = tracker.unrecovered();
  mean_detect_s = tracker.meanDetectSeconds();
  mean_recover_s = tracker.meanRecoverSeconds();
  max_recover_s = tracker.maxRecoverSeconds();
  requests_lost = tracker.requestsLost();
  records = tracker.records();
}

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

double successRatio(int successes, int attempts) {
  return attempts == 0 ? 0.0 : static_cast<double>(successes) / attempts;
}

void captureJsonl(obs::Hub& hub, std::string& metrics, std::string* trace,
                  std::string* spans) {
  std::ostringstream out;
  obs::writeMetricsJsonl(hub.registry(), out);
  metrics = std::move(out).str();
  if (trace != nullptr) {
    std::ostringstream t;
    obs::writeTraceJsonl(hub.tracer(), t);
    *trace = std::move(t).str();
  }
  if (spans != nullptr) {
    std::ostringstream s;
    obs::writeSpansJsonl(hub.spans().spans(), s);
    *spans = std::move(s).str();
  }
}

}  // namespace sc::measure
