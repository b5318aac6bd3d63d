#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chaos/scripts.h"
#include "helpers.h"
#include "measure/campaign.h"
#include "measure/chaos_scenario.h"
#include "measure/parallel.h"
#include "measure/resource_model.h"
#include "measure/serverless_scenario.h"
#include "measure/testbed.h"
#include "population/flow_model.h"
#include "measure/cell_world.h"
#include "serverless/cost.h"
#include "serverless/provider.h"
#include "sim/simulator.h"

namespace sc {
namespace {

// ---- FunctionProvider lifecycle ----------------------------------------

// A provisioner with no network: the provider's own bookkeeping only. It
// records each function's warm-up instant in `warm_at` when given one.
serverless::FunctionProvider::ProvisionFn stubProvision(
    std::vector<sim::Time>* warm_at = nullptr) {
  return [warm_at](int seq,
                   sim::Time warm) -> std::optional<fleet::EndpointSpawn> {
    if (warm_at != nullptr) warm_at->push_back(warm);
    return fleet::EndpointSpawn{
        net::Endpoint{net::Ipv4{0x0a000000u + static_cast<std::uint32_t>(seq)},
                      443},
        "stub-" + std::to_string(seq), measure::Testbed::kFrontDomain};
  };
}

// The provider feeding a real gateway fleet, on a cell world.
struct FunctionWorld {
  explicit FunctionWorld(std::uint64_t seed,
                         const serverless::ProviderOptions& opts)
      : cw(seed, /*tracing=*/false),
        deployed(cw.world, cw.gfw, cw.usDnsIp(), opts,
                 crypto::BlindingMode::kByteMap) {}

  int idOf(const net::Endpoint& ep) const {
    return *deployed.fleet.endpointIdFor(ep.ip);
  }

  measure::CellWorld cw;
  measure::ServerlessDeployment deployed;
};

TEST(ServerlessProvider, PrewarmColdStartsInsideConfiguredBounds) {
  sim::Simulator sim(11);
  serverless::ProviderOptions opts;
  opts.prewarm = 3;
  opts.ttl = 0;
  std::vector<sim::Time> warm_at;
  serverless::FunctionProvider provider(sim, opts, stubProvision(&warm_at));
  for (int seq = 0; seq < 3; ++seq) ASSERT_TRUE(provider.spawn(seq));
  EXPECT_EQ(provider.liveCount(), 3);

  ASSERT_EQ(warm_at.size(), 3u);
  for (const sim::Time cold : warm_at) {  // spawned at t = 0
    EXPECT_GE(cold, serverless::kColdStartMin);
    EXPECT_LE(cold, serverless::kColdStartMax);
  }
}

TEST(ServerlessProvider, TtlReapsAndRespawnsWithFreshIds) {
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.ttl = 5 * sim::kSecond;
  FunctionWorld w(12, opts);
  w.cw.sim.runUntil(30 * sim::kSecond);

  EXPECT_GT(w.deployed.provider.reaps(), 0u);
  EXPECT_EQ(w.deployed.provider.liveCount(), 2);  // each reap replaced
  const auto live = w.deployed.fleet.liveEndpoints();
  ASSERT_EQ(live.size(), 2u);
  // Ids are a monotone sequence: every live id postdates every reaped one.
  for (const auto& ep : live) {
    EXPECT_GE(w.idOf(ep), static_cast<int>(w.deployed.provider.reaps()));
    EXPECT_NE(w.deployed.provider.get(w.idOf(ep)), nullptr);
  }
}

TEST(ServerlessProvider, BanRetireChargesCostAndRefillsFloor) {
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.ttl = 0;
  FunctionWorld w(13, opts);
  w.cw.sim.runUntil(3 * sim::kSecond);

  const auto live = w.deployed.fleet.liveEndpoints();
  ASSERT_EQ(live.size(), 2u);
  const int banned = w.idOf(live.front());
  w.cw.gfw.ips().add(live.front().ip);
  ASSERT_TRUE(w.cw.sim.runWhile([&] { return w.deployed.cost.bans() > 0; },
                                w.cw.sim.now() + 20 * sim::kSecond));
  EXPECT_EQ(w.deployed.cost.bans(), 1u);
  EXPECT_EQ(w.deployed.provider.liveCount(), 2);  // replaced at once
  EXPECT_EQ(w.deployed.provider.spawns(), 3u);
  EXPECT_EQ(w.deployed.provider.get(banned), nullptr);  // id never reused
}

TEST(ServerlessProvider, StaticSetDeclinesEverySpawnAfterPrewarm) {
  sim::Simulator sim(14);
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.respawn = false;
  opts.ttl = 0;
  serverless::FunctionProvider provider(sim, opts, stubProvision());
  EXPECT_TRUE(provider.spawn(0));
  EXPECT_TRUE(provider.spawn(1));
  EXPECT_FALSE(provider.spawn(2));

  // Banning both pre-warmed endpoints exhausts the set for good.
  FunctionWorld w(14, opts);
  w.cw.sim.runUntil(3 * sim::kSecond);
  for (const auto& ep : w.deployed.fleet.liveEndpoints())
    w.cw.gfw.ips().add(ep.ip);
  w.cw.sim.runUntil(w.cw.sim.now() + 20 * sim::kSecond);
  EXPECT_EQ(w.deployed.provider.liveCount(), 0);
  EXPECT_EQ(w.deployed.fleet.size(), 0);
  EXPECT_EQ(w.deployed.provider.spawns(), 2u);
  EXPECT_EQ(w.deployed.cost.bans(), 2u);
}

TEST(ServerlessCost, EndpointSecondsFoldOpenIntervalsAtReadout) {
  sim::Simulator sim(15);
  serverless::CostModel cost(sim);
  cost.endpointStarted(0);
  cost.endpointStarted(1);
  sim.runUntil(10 * sim::kSecond);
  EXPECT_NEAR(cost.endpointSeconds(), 20.0, 1e-9);

  cost.endpointStopped(0);
  sim.runUntil(20 * sim::kSecond);
  EXPECT_NEAR(cost.endpointSeconds(), 30.0, 1e-9);  // one closed, one open

  cost.invocation();
  cost.invocation();
  EXPECT_NEAR(cost.totalCost(), 30.0 * 1.0 + 2 * 0.02, 1e-9);
}

// ---- the full method through the Testbed --------------------------------

TEST(ServerlessTestbed, PageLoadsThroughFrontedFleet) {
  measure::Testbed bed;
  bool ready = false, ready_ok = false;
  auto& client = bed.addClient(measure::Method::kServerless, 42,
                               [&](bool ok) { ready = true; ready_ok = ok; });
  ASSERT_TRUE(bed.sim().runWhile([&] { return ready; }, sim::kMinute));
  ASSERT_TRUE(ready_ok);

  bool done = false, page_ok = false;
  client.browser->loadPage(measure::Testbed::kScholarHost,
                           [&](http::PageLoadResult r) {
                             done = true;
                             page_ok = r.ok;
                           });
  ASSERT_TRUE(bed.sim().runWhile([&] { return done; },
                                 bed.sim().now() + 2 * sim::kMinute));
  EXPECT_TRUE(page_ok);
  ASSERT_NE(bed.serverlessProvider(), nullptr);
  EXPECT_GE(bed.serverlessProvider()->liveCount(),
            measure::kServerlessPrewarm);
  ASSERT_NE(bed.serverlessCost(), nullptr);
  EXPECT_GT(bed.serverlessCost()->invocations(), 0u);
}

TEST(ServerlessTestbed, EndpointIpBanRetiresAndRespawnsOnFreshIp) {
  measure::Testbed bed;
  bool ready = false;
  auto& client = bed.addClient(measure::Method::kServerless, 42,
                               [&](bool ok) { ready = ok; });
  ASSERT_TRUE(bed.sim().runWhile([&] { return ready; }, sim::kMinute));

  auto* provider = bed.serverlessProvider();
  auto* fleet = bed.serverlessFleet();
  ASSERT_NE(provider, nullptr);
  ASSERT_NE(fleet, nullptr);
  // Let the pre-warmed endpoints finish their fronted dials.
  bed.sim().runUntil(bed.sim().now() + 5 * sim::kSecond);
  const auto live = fleet->liveEndpoints();
  ASSERT_FALSE(live.empty());
  const net::Ipv4 banned_ip = live.front().ip;
  const std::uint64_t spawns_before = provider->spawns();

  bed.gfw().ips().add(banned_ip);  // the GFW confirms one endpoint
  bed.sim().runUntil(bed.sim().now() + 20 * sim::kSecond);

  // The banned endpoint was retired and replaced on a fresh IP.
  EXPECT_FALSE(fleet->endpointIdFor(banned_ip).has_value());
  EXPECT_GT(provider->spawns(), spawns_before);
  ASSERT_NE(bed.serverlessCost(), nullptr);
  EXPECT_GE(bed.serverlessCost()->bans(), 1u);

  bool done = false, page_ok = false;
  client.browser->loadPage(measure::Testbed::kScholarHost,
                           [&](http::PageLoadResult r) {
                             done = true;
                             page_ok = r.ok;
                           });
  ASSERT_TRUE(bed.sim().runWhile([&] { return done; },
                                 bed.sim().now() + 2 * sim::kMinute));
  EXPECT_TRUE(page_ok);  // the method survived the per-endpoint loss
}

TEST(ServerlessTestbed, TtlReapDrainsAnInFlightFetch) {
  // A TTL reap is routine churn, not a failure: the reaped endpoint takes
  // no new picks, but the request already riding its tunnel completes.
  measure::Testbed bed;
  bool ready = false;
  auto& client = bed.addClient(measure::Method::kServerless, 42,
                               [&](bool ok) { ready = ok; });
  ASSERT_TRUE(bed.sim().runWhile([&] { return ready; }, sim::kMinute));
  auto* provider = bed.serverlessProvider();
  auto* fleet = bed.serverlessFleet();
  auto* cost = bed.serverlessCost();
  ASSERT_NE(provider, nullptr);
  ASSERT_NE(fleet, nullptr);
  ASSERT_NE(cost, nullptr);
  bed.sim().runUntil(bed.sim().now() + 5 * sim::kSecond);

  bool done = false, page_ok = false;
  const std::uint64_t invocations = cost->invocations();
  client.browser->loadPage(measure::Testbed::kScholarHost,
                           [&](http::PageLoadResult r) {
                             done = true;
                             page_ok = r.ok;
                           });
  // The first stream is open: reap every endpoint under it.
  ASSERT_TRUE(bed.sim().runWhile(
      [&] { return cost->invocations() > invocations; },
      bed.sim().now() + sim::kMinute));
  ASSERT_FALSE(done);
  const std::uint64_t reaps = provider->reaps();
  for (const auto& ep : fleet->liveEndpoints())
    provider->reap(*fleet->endpointIdFor(ep.ip));
  ASSERT_GT(provider->reaps(), reaps);

  ASSERT_TRUE(bed.sim().runWhile([&] { return done; },
                                 bed.sim().now() + 2 * sim::kMinute));
  EXPECT_TRUE(page_ok);
  // Past the drain deadline no reaped tunnel is left connected.
  bed.sim().runUntil(bed.sim().now() + 45 * sim::kSecond);
  EXPECT_LE(fleet->connectedTunnels().size(),
            static_cast<std::size_t>(provider->liveCount()));
}

TEST(ServerlessTestbed, FrontDomainBlocklistingKillsTheMethod) {
  // The one move that does work: blocklisting the front domain itself. The
  // SNI is on the wire in every dial, so once it's on the domain blocklist
  // no tunnel can be (re)established — the collateral-damage trade is the
  // method's real upper bound, same as real-world domain fronting.
  measure::Testbed bed;
  bed.gfw().domains().add("cloud-front.example");
  bool ready = false;
  auto& client = bed.addClient(measure::Method::kServerless, 42,
                               [&](bool ok) { ready = true; (void)ok; });
  ASSERT_TRUE(bed.sim().runWhile([&] { return ready; }, sim::kMinute));

  bool done = false, page_ok = true;
  client.browser->loadPage(measure::Testbed::kScholarHost,
                           [&](http::PageLoadResult r) {
                             done = true;
                             page_ok = r.ok;
                           });
  ASSERT_TRUE(bed.sim().runWhile([&] { return done; },
                                 bed.sim().now() + 2 * sim::kMinute));
  EXPECT_FALSE(page_ok);
  ASSERT_NE(bed.serverlessFleet(), nullptr);
  EXPECT_TRUE(bed.serverlessFleet()->connectedTunnels().empty());
}

// ---- chaos cells ---------------------------------------------------------

TEST(ServerlessChaos, EphemeralSurvivesBanWaveStaticSetDies) {
  measure::ServerlessCellOptions opt;
  opt.script = chaos::endpointBanWave(5 * sim::kSecond, 4);
  opt.duration = 60 * sim::kSecond;

  measure::ServerlessCellOptions frozen = opt;
  frozen.respawn = false;
  frozen.prewarm = 2;
  frozen.ttl = 0;

  const auto ephemeral = measure::runServerlessCell(opt);
  const auto dead = measure::runServerlessCell(frozen);

  EXPECT_GT(ephemeral.attempts_after_last_fault, 0);
  EXPECT_GT(ephemeral.successes_after_last_fault, 0);
  EXPECT_GT(ephemeral.bans, 0u);
  EXPECT_GT(ephemeral.spawns, static_cast<std::uint64_t>(opt.prewarm));

  EXPECT_GT(dead.attempts_after_last_fault, 0);
  EXPECT_EQ(dead.successes_after_last_fault, 0);
  EXPECT_EQ(dead.final_live, 0);
}

std::uint64_t digestOf(const measure::ServerlessCellResult& r) {
  return test::cellDigest(
      r.metrics_jsonl, r.trace_jsonl, r.attempts, r.successes,
      r.success_ratio, r.attempts_after_last_fault,
      r.successes_after_last_fault, r.faults, r.impacted, r.recovered,
      r.unrecovered, r.mean_detect_s, r.mean_recover_s, r.max_recover_s,
      r.requests_lost, r.endpoint_seconds, r.cost_units, r.invocations,
      r.spawns, r.cold_starts, r.bans, r.reaps, r.cold_start_max_ms,
      r.cold_start_mean_ms, r.final_live, r.final_connected, r.border_bytes,
      r.records.size());
}

TEST(ServerlessChaos, StaticBaselineCellGolden) {
  measure::ServerlessCellOptions opt;
  opt.script = chaos::endpointBanWave(5 * sim::kSecond, 2);
  opt.duration = 30 * sim::kSecond;
  opt.respawn = false;
  opt.prewarm = 2;
  opt.ttl = 0;
  const auto r = measure::runServerlessCell(opt);
  EXPECT_GT(r.attempts, 0);
  EXPECT_GT(r.bans, 0u);
  EXPECT_EQ(digestOf(r), 0xb9e2597da00050d2ULL) << std::hex << digestOf(r);
}

TEST(ServerlessChaos, RunChaosCellDispatchesServerlessMethod) {
  measure::ChaosCellOptions opt;
  opt.method = measure::Method::kServerless;
  opt.script = chaos::endpointBanWave(5 * sim::kSecond, 2);
  opt.duration = 40 * sim::kSecond;
  const auto cell = measure::runChaosCell(opt);
  EXPECT_GT(cell.attempts, 0);
  EXPECT_GT(cell.successes, 0);
  EXPECT_GT(cell.respawns, 0u);
  // Golden over the folded-down chaos result: every field the serverless
  // world hands back survives the fold.
  const std::uint64_t digest = test::cellDigest(
      cell.metrics_jsonl, cell.trace_jsonl, cell.attempts, cell.successes,
      cell.success_ratio, cell.faults, cell.impacted, cell.recovered,
      cell.unrecovered, cell.mean_detect_s, cell.mean_recover_s,
      cell.max_recover_s, cell.requests_lost, cell.respawns,
      cell.records.size());
  EXPECT_EQ(digest, 0x9fdda6fd7cef724dULL) << std::hex << digest;
}

TEST(ServerlessChaos, ParallelCellsMatchSerialByteForByte) {
  std::vector<measure::ServerlessCellOptions> cells(2);
  cells[0].script = chaos::endpointBanWave(5 * sim::kSecond, 2);
  cells[0].duration = 30 * sim::kSecond;
  cells[1] = cells[0];
  cells[1].seed = 43;

  const auto parallel =
      measure::runCells(cells, 2, measure::runServerlessCell);
  const auto serial = measure::runCells(cells, 1, measure::runServerlessCell);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].attempts, serial[i].attempts);
    EXPECT_EQ(parallel[i].successes, serial[i].successes);
    EXPECT_EQ(parallel[i].spawns, serial[i].spawns);
    EXPECT_EQ(parallel[i].cost_units, serial[i].cost_units);
    EXPECT_EQ(parallel[i].metrics_jsonl, serial[i].metrics_jsonl);
    EXPECT_EQ(parallel[i].trace_jsonl, serial[i].trace_jsonl);
  }
  EXPECT_EQ(digestOf(serial[0]), 0xb6144931db568218ULL)
      << std::hex << digestOf(serial[0]);
  EXPECT_EQ(digestOf(serial[1]), 0x8819a75944642e5aULL)
      << std::hex << digestOf(serial[1]);
}

// ---- every per-method table covers every method --------------------------

TEST(ServerlessExhaustive, MeasureMethodTablesCoverEveryMethod) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < measure::kMethodCount; ++i) {
    const auto m = static_cast<measure::Method>(i);
    const char* name = measure::methodName(m);
    EXPECT_STRNE(name, "?") << "measure::Method " << i << " missing a name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;

    const double crypto = measure::clientCryptoFraction(m);
    EXPECT_GE(crypto, 0.0) << name;
    EXPECT_LE(crypto, 1.0) << name;

    measure::CampaignResult c;
    c.method = m;
    c.connections_estimate = 7;
    const auto mem = measure::modelMemory(c, {});
    EXPECT_GT(mem.before_mb, 0.0) << name;
    EXPECT_GE(mem.after_mb, mem.before_mb) << name;
  }
  EXPECT_EQ(names.size(), measure::kMethodCount);
}

TEST(ServerlessExhaustive, FlowModelTablesCoverEveryMethod) {
  std::set<std::string> names;
  population::FlowModel flow(net::WorldParams{}, /*gfw=*/nullptr);
  for (std::size_t i = 0; i < population::kMethodCount; ++i) {
    const auto m = static_cast<population::Method>(i);
    const char* name = population::methodName(m);
    EXPECT_STRNE(name, "?") << "population::Method " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;

    const auto& prof = flow.profileOf(m);
    EXPECT_GT(prof.rtts_first, 0.0) << name;
    EXPECT_GT(prof.rtts_sub, 0.0) << name;
    EXPECT_GT(prof.bytes_per_access, 0.0) << name;
    const double d = flow.disciplineOf(m);
    EXPECT_GE(d, 0.0) << name;
    EXPECT_LE(d, 1.0) << name;
  }
  EXPECT_EQ(names.size(), population::kMethodCount);
}

TEST(ServerlessExhaustive, FlowModelServerlessSeesNoDiscipline) {
  // Fronted TLS with a stock fingerprint: every GFW policy level classifies
  // it as ordinary kTls, so no per-class discipline ever applies.
  gfw::GfwConfig maximal;
  maximal.protocol_fingerprinting = true;
  maximal.entropy_classification = true;
  maximal.block_vpn_protocols = true;
  population::FlowModel flow(net::WorldParams{}, nullptr, maximal);
  EXPECT_EQ(flow.disciplineOf(population::Method::kServerless), 0.0);
  EXPECT_GT(flow.disciplineOf(population::Method::kShadowsocks), 0.0);
  const auto access =
      flow.expected(population::Method::kServerless, /*first_visit=*/false);
  EXPECT_TRUE(access.ok);
  EXPECT_GT(access.plt_s, 0.0);
}

}  // namespace
}  // namespace sc
