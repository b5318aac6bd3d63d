#include "measure/population_scenario.h"

#include <algorithm>
#include <cmath>
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
#include "measure/campaign.h"
#include "measure/parallel.h"
#include "measure/testbed.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "regulation/icp_registry.h"

namespace sc::measure {

namespace {

constexpr const char* kHost = "scholar.google.com";
constexpr sim::Time kFetchTimeout = 15 * sim::kSecond;

struct CohortUser {
  std::unique_ptr<transport::HostStack> stack;
  sim::Rng rng;

  CohortUser(net::Node& node, sim::Rng rng_)
      : stack(std::make_unique<transport::HostStack>(node)),
        rng(std::move(rng_)) {}
};

}  // namespace

PopulationCellResult runPopulationCell(const PopulationCellOptions& opt) {
  sim::Simulator sim(opt.seed);
  obs::Hub hub(sim);
  if (opt.tracing) hub.tracer().enable();
  net::Network network(sim);
  net::World world(network, calibratedWorld());

  auto& dns_node = world.addUsServer("us-dns");
  transport::HostStack dns_stack(dns_node);
  dns::DnsServer us_dns(dns_stack);
  const net::Ipv4 us_dns_ip = dns_node.primaryIp();

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
  us_dns.addRecord(kHost, origin_node.primaryIp());

  gfw::Gfw gfw(network, calibratedGfw());
  gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
  gfw.domains().add("google.com");
  gfw.ips().add(origin_node.primaryIp());
  regulation::IcpRegistry registry;
  gfw.setIcpLookup([&registry](net::Ipv4 ip) {
    return registry.isRegistered(ip);
  });

  const Bytes secret = toBytes("scholarcloud-operator-secret");

  std::vector<std::unique_ptr<transport::HostStack>> remote_stacks;
  std::vector<std::unique_ptr<core::RemoteProxy>> remote_proxies;

  auto& domestic_node = world.addCampusServer("sc-domestic");
  transport::HostStack domestic_stack(domestic_node, 2.3e9);
  core::DomesticProxyOptions dom_opts;
  dom_opts.tunnel_secret = secret;  // fleet-only mode
  dom_opts.whitelist = {kHost};
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
    const std::string name = "pop-remote-" + std::to_string(seq);
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

  // ---- flow-level background population --------------------------------
  population::PopulationOptions popts;
  popts.scholars = opt.scholars;
  popts.seed = opt.seed;
  popts.sc_adoption = opt.sc_adoption;
  population::SchedulerOptions sopts = opt.scheduler;
  sopts.streams_per_endpoint = opt.tunnels_per_endpoint;
  population::FlowModel flow(calibratedWorld(), &gfw);
  std::unique_ptr<population::HybridScheduler> background;
  if (opt.background) {
    background = std::make_unique<population::HybridScheduler>(
        sim, population::PopulationModel(popts), flow, &fl, sopts);
    background->start(opt.duration);
  }

  // ---- packet-level cohort ---------------------------------------------
  PopulationCellResult out;
  double plt_sum = 0;
  const net::Endpoint proxy_ep = proxy.proxyEndpoint();
  std::vector<std::unique_ptr<CohortUser>> users;
  std::function<void(CohortUser&)> fetch = [&](CohortUser& user) {
    CohortUser* u = &user;
    ++out.cohort_attempts;
    const sim::Time started = sim.now();
    const auto next = [&, u, started](bool ok) {
      if (ok) {
        ++out.cohort_successes;
        const double plt =
            static_cast<double>(sim.now() - started) / sim::kSecond;
        plt_sum += plt;
        out.cohort_plt_max_s = std::max(out.cohort_plt_max_s, plt);
      }
      const auto think =
          static_cast<sim::Time>(u->rng.exponential(
              static_cast<double>(opt.cohort_think_mean))) +
          sim::kMillisecond;
      sim.schedule(think, [&fetch, u] { fetch(*u); });
    };
    u->stack->tcpConnect(proxy_ep, [&, next](transport::TcpSocket::Ptr sock) {
      if (sock == nullptr) {
        next(false);
        return;
      }
      http::Request req;
      req.target = std::string("http://") + kHost + "/";
      req.headers.set("host", kHost);
      http::HttpClient::fetchOn(
          sock, sim, std::move(req), kFetchTimeout,
          [sock, next](std::optional<http::Response> resp) {
            sock->close();
            next(resp.has_value() && resp->status == 200);
          });
    });
  };
  for (int i = 0; i < opt.cohort_users; ++i) {
    auto& node = world.addCampusHost("cohort-user-" + std::to_string(i));
    users.push_back(std::make_unique<CohortUser>(
        node, sim.rng().fork(2000 + static_cast<std::uint64_t>(i))));
    CohortUser* u = users.back().get();
    const auto start = static_cast<sim::Time>(
        u->rng.exponential(static_cast<double>(sim::kSecond)));
    sim.schedule(start, [&fetch, u] { fetch(*u); });
  }

  // Load sampler: tracks the peak concurrent stream count the shared pool
  // carried (background leases + cohort streams).
  std::function<void()> sample_load = [&] {
    out.peak_active_streams = std::max(
        out.peak_active_streams, static_cast<double>(fl.activeStreams()));
    sim.schedule(sim::kSecond, [&sample_load] { sample_load(); });
  };
  sim.schedule(sim::kSecond / 2, [&sample_load] { sample_load(); });

  sim.runUntil(opt.duration);

  if (background != nullptr) {
    out.background_stats = background->stats();
    out.background_digest = out.background_stats.digest();
  }
  out.cohort_plt_mean_s =
      out.cohort_successes == 0 ? 0.0 : plt_sum / out.cohort_successes;
  if (fl.cache() != nullptr) {
    out.cache_hits = fl.cache()->hits();
    out.cache_misses = fl.cache()->misses();
  }
  out.final_fleet_size = fl.size();
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

std::vector<PopulationCellResult> runPopulationCells(
    const std::vector<PopulationCellOptions>& cells, unsigned threads) {
  std::vector<PopulationCellResult> results(cells.size());
  ParallelRunner(threads).forEachIndex(cells.size(), [&](std::size_t i) {
    results[i] = runPopulationCell(cells[i]);
  });
  return results;
}

namespace {

double relErr(double got, double want) {
  return want == 0.0 ? (got == 0.0 ? 0.0 : 1.0)
                     : std::abs(got - want) / std::abs(want);
}

}  // namespace

ValidationCellResult runValidationCell(const ValidationCellOptions& opt) {
  ValidationCellResult out;
  out.method = opt.method;

  TestbedOptions topts;
  topts.seed = opt.seed;
  Testbed tb(topts);

  CampaignOptions copts;
  copts.accesses = opt.accesses;
  // population::Method and measure::Method share ordinals 0..5 by
  // construction (both mirror the paper's method list); serverless diverges
  // (measure interposes kUsControl at 6) and must be mapped by name.
  const auto packet_method =
      opt.method == population::Method::kServerless
          ? Method::kServerless
          : static_cast<Method>(opt.method);
  const auto tag = 600 + static_cast<std::uint32_t>(opt.method);
  const CampaignResult campaign =
      runAccessCampaign(tb, packet_method, tag, copts);

  out.packet_plt_first_s = campaign.plt_first_s.mean;
  out.packet_plt_sub_s = campaign.plt_sub_s.mean;
  out.packet_rtt_ms = campaign.rtt_ms.mean;
  out.packet_plr_pct = campaign.plr_pct;

  // Same world parameters, live tap on the same Gfw instance the campaign
  // just crossed.
  population::FlowModel flow(tb.options().world, &tb.gfw());
  const auto first = flow.expected(opt.method, /*first_visit=*/true);
  const auto sub = flow.expected(opt.method, /*first_visit=*/false);
  out.flow_plt_first_s = first.plt_s;
  out.flow_plt_sub_s = sub.plt_s;
  out.flow_rtt_ms = sub.rtt_ms;
  out.flow_plr_pct = sub.plr_pct;

  out.plt_first_rel_err = relErr(out.flow_plt_first_s, out.packet_plt_first_s);
  out.plt_sub_rel_err = relErr(out.flow_plt_sub_s, out.packet_plt_sub_s);
  out.rtt_rel_err = relErr(out.flow_rtt_ms, out.packet_rtt_ms);
  out.plr_abs_err_pp = std::abs(out.flow_plr_pct - out.packet_plr_pct);

  const bool plr_ok =
      out.plr_abs_err_pp <= opt.plr_abs_tol_pp ||
      relErr(out.flow_plr_pct, out.packet_plr_pct) <= opt.plr_rel_tol;
  out.pass = campaign.setup_ok && campaign.successes > 0 &&
             out.plt_first_rel_err <= opt.plt_first_rel_tol &&
             out.plt_sub_rel_err <= opt.plt_rel_tol &&
             out.rtt_rel_err <= opt.rtt_rel_tol && plr_ok;
  return out;
}

std::vector<ValidationCellResult> runValidationCells(
    const std::vector<ValidationCellOptions>& cells, unsigned threads) {
  std::vector<ValidationCellResult> results(cells.size());
  ParallelRunner(threads).forEachIndex(cells.size(), [&](std::size_t i) {
    results[i] = runValidationCell(cells[i]);
  });
  return results;
}

}  // namespace sc::measure
