#include "measure/fleet_scenario.h"

#include <functional>
#include <string>
#include <vector>

#include "measure/cell_world.h"

namespace sc::measure {

namespace {

constexpr sim::Time kFetchTimeout = 15 * sim::kSecond;
// How long the churn driver blocks each egress IP it discovers.
constexpr sim::Time kBlockDuration = 60 * sim::kSecond;
// Mean of the users' exponential think time.
constexpr sim::Time kThinkMean = 2 * sim::kSecond;

}  // namespace

FleetCellResult runFleetCell(const FleetCellOptions& opt) {
  CellWorld cw(opt.seed, opt.tracing);
  sim::Simulator& sim = cw.sim;

  fleet::FleetOptions fopts;
  fopts.initial_size = opt.fleet_size;
  fopts.tunnels_per_endpoint = opt.tunnels_per_endpoint;
  fopts.enable_cache = opt.cache;
  fopts.autoscale = opt.autoscale;
  FleetDeployment deployed(cw, "fleet", fopts);
  fleet::Fleet& fl = deployed.fleet;

  // Churn driver: every interval the GFW "discovers" one live egress IP.
  FleetCellResult out;
  std::function<void()> churn = [&] {
    for (const net::Endpoint& ep : fl.liveEndpoints()) {
      if (cw.gfw.ips().isBlocked(ep.ip, sim.now())) continue;
      cw.gfw.ips().add(ep.ip, sim.now() + kBlockDuration);
      ++out.blocks_applied;
      break;
    }
    sim.schedule(opt.churn_interval, [&churn] { churn(); });
  };
  if (opt.churn_interval > 0)
    sim.schedule(opt.churn_interval, [&churn] { churn(); });

  // Users fetch the whitelisted page through the proxy with exponential
  // think times, each from its own forked stream.
  std::vector<sim::Rng> rngs;
  FetchLoop users(
      cw, deployed.proxy.proxyEndpoint(), kFetchTimeout,
      [&] { ++out.attempts; },
      [&](std::size_t i, bool ok, sim::Time) {
        if (ok) ++out.successes;
        return static_cast<sim::Time>(rngs[i].exponential(
                   static_cast<double>(kThinkMean))) +
               sim::kMillisecond;
      });
  for (int i = 0; i < opt.users; ++i) {
    rngs.push_back(sim.rng().fork(1000 + static_cast<std::uint64_t>(i)));
    users.addUser("fleet-user-" + std::to_string(i),
                  static_cast<sim::Time>(rngs.back().exponential(
                      static_cast<double>(sim::kSecond))));
  }

  sim.runUntil(opt.duration);

  out.success_ratio = successRatio(out.successes, out.attempts);
  if (fl.cache() != nullptr) {
    out.cache_hits = fl.cache()->hits();
    out.cache_misses = fl.cache()->misses();
  }
  out.border_bytes =
      cw.world.borderLink().bytesCarried(net::Direction::kAtoB) +
      cw.world.borderLink().bytesCarried(net::Direction::kBtoA);
  out.respawns = fl.respawns();
  out.failovers = fl.failovers();
  out.final_size = fl.size();
  captureJsonl(cw.hub, out.metrics_jsonl,
               opt.tracing ? &out.trace_jsonl : nullptr);
  return out;
}

}  // namespace sc::measure
