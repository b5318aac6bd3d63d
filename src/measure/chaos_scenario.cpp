#include "measure/chaos_scenario.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "chaos/engine.h"
#include "chaos/injector.h"
#include "measure/cell_world.h"
#include "measure/serverless_scenario.h"

namespace sc::measure {

namespace {

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
    c->browser->loadPage(Testbed::kScholarHost, [&, c](http::PageLoadResult r) {
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

  out.success_ratio = successRatio(out.successes, out.attempts);
  out.readFrom(tracker);
  captureJsonl(bed.hub(), out.metrics_jsonl, &out.trace_jsonl);
  return out;
}

// The fleet-backed ScholarCloud world with all four injectors armed.
// "egress" resolves to the first live, not-yet-banned endpoint at fire time
// — the GFW discovering an IP it can see.
ChaosCellResult runFleetChaosCell(const ChaosCellOptions& opt) {
  CellWorld cw(opt.seed, true, opt.trace_capacity);
  sim::Simulator& sim = cw.sim;
  chaos::RecoveryTracker tracker(sim, opt.script);
  tracker.attachTo(cw.hub.tracer());

  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  FleetDeployment deployed(cw, "fleet", fopts);
  fleet::Fleet& fl = deployed.fleet;

  chaos::LinkInjector link_inj(cw.network);
  chaos::GfwInjector gfw_inj(
      cw.gfw, [&fl, &cw](const std::string& target)
                  -> std::optional<net::Ipv4> {
        if (target != "egress") return std::nullopt;
        for (const net::Endpoint& ep : fl.liveEndpoints())
          if (!cw.gfw.ips().isBlocked(ep.ip, cw.sim.now())) return ep.ip;
        return std::nullopt;
      });
  chaos::FleetInjector fleet_inj(fl);
  chaos::DnsInjector dns_inj(cw.us_dns, "us-dns");
  chaos::ChaosEngine engine(sim, opt.script);
  engine.addInjector(&link_inj);
  engine.addInjector(&fleet_inj);
  engine.addInjector(&dns_inj);
  engine.addInjector(&gfw_inj);
  engine.arm();

  ChaosCellResult out;
  FetchLoop users(
      cw, deployed.proxy.proxyEndpoint(), opt.fetch_timeout,
      [&] { ++out.attempts; },
      [&](std::size_t, bool ok, sim::Time started) {
        if (ok) ++out.successes;
        traceAccess(sim, ok, sim.now() - started, Testbed::kScTunnelTag);
        return opt.access_interval;
      });
  for (int i = 0; i < opt.users; ++i)
    users.addUser("chaos-user-" + std::to_string(i),
                  (i + 1) * 250 * sim::kMillisecond);

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  out.respawns = fl.respawns();
  out.readFrom(tracker);
  captureJsonl(cw.hub, out.metrics_jsonl, &out.trace_jsonl);
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
    static_cast<RecoveryReadout&>(out) = sr;
    out.attempts = sr.attempts;
    out.successes = sr.successes;
    out.success_ratio = sr.success_ratio;
    // "Respawns" here = spawns beyond the initial pre-warm fill.
    out.respawns = sr.spawns > static_cast<std::uint64_t>(sopt.prewarm)
                       ? sr.spawns - static_cast<std::uint64_t>(sopt.prewarm)
                       : 0;
    out.metrics_jsonl = sr.metrics_jsonl;
    out.trace_jsonl = sr.trace_jsonl;
    return out;
  }
  if (options.method == Method::kScholarCloud)
    return runFleetChaosCell(options);
  return runTestbedCell(options);
}

}  // namespace sc::measure
