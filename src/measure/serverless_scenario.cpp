#include "measure/serverless_scenario.h"

#include <algorithm>
#include <optional>
#include <string>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "measure/cell_world.h"

namespace sc::measure {

ServerlessCellResult runServerlessCell(const ServerlessCellOptions& opt) {
  CellWorld cw(opt.seed, true, opt.trace_capacity);
  sim::Simulator& sim = cw.sim;
  chaos::RecoveryTracker tracker(sim, opt.script);
  tracker.attachTo(cw.hub.tracer());

  serverless::ProviderOptions popts;
  popts.prewarm = opt.prewarm;
  popts.ttl = opt.ttl;
  popts.respawn = opt.respawn;
  ServerlessDeployment deployed(cw.world, cw.gfw, cw.usDnsIp(), popts,
                                crypto::BlindingMode::kByteMap);
  serverless::CostModel& cost = deployed.cost;

  chaos::LinkInjector link_inj(cw.network);
  // "egress" resolves to the first live, not-yet-banned endpoint IP at fire
  // time — the GFW discovering an IP it can see traffic to (the fronted
  // dial starts at spawn, cold start or not).
  chaos::GfwInjector gfw_inj(
      cw.gfw, [&deployed, &cw](const std::string& target)
                  -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (const net::Endpoint& ep : deployed.fleet.liveEndpoints())
          if (!cw.gfw.ips().isBlocked(ep.ip, cw.sim.now())) return ep.ip;
        return std::nullopt;
      });
  chaos::DnsInjector dns_inj(cw.us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  sim::Time last_fault_at = 0;
  for (const chaos::FaultEvent& ev : opt.script.events())
    last_fault_at = std::max(last_fault_at, ev.at);

  ServerlessCellResult out;
  FetchLoop users(
      cw, deployed.gateway.proxyEndpoint(), opt.fetch_timeout,
      [&] {
        ++out.attempts;
        if (sim.now() > last_fault_at) ++out.attempts_after_last_fault;
      },
      [&](std::size_t, bool ok, sim::Time started) {
        if (ok) {
          ++out.successes;
          if (started > last_fault_at) ++out.successes_after_last_fault;
        }
        traceAccess(sim, ok, sim.now() - started,
                    Testbed::kServerlessTunnelTag);
        return opt.access_interval;
      });
  for (int i = 0; i < opt.users; ++i)
    users.addUser("fn-user-" + std::to_string(i),
                  (i + 1) * 250 * sim::kMillisecond);

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  cost.publish();
  out.endpoint_seconds = cost.endpointSeconds();
  out.cost_units = cost.totalCost();
  out.invocations = cost.invocations();
  out.spawns = cost.spawns();
  out.cold_starts = cost.coldStarts();
  out.bans = cost.bans();
  out.reaps = deployed.provider.reaps();
  out.cold_start_max_ms = cost.coldStartMaxMs();
  out.cold_start_mean_ms = cost.coldStartMeanMs();
  out.final_live = deployed.provider.liveCount();
  out.final_connected =
      static_cast<int>(deployed.fleet.connectedTunnels().size());
  out.border_bytes =
      cw.network.tagStats(Testbed::kServerlessTunnelTag).bytes_originated;
  out.readFrom(tracker);
  captureJsonl(cw.hub, out.metrics_jsonl, &out.trace_jsonl);
  return out;
}

}  // namespace sc::measure
