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
#include "serverless/cost.h"
#include "serverless/dispatcher.h"
#include "serverless/provider.h"
#include "sim/simulator.h"

namespace sc {
namespace {

// ---- FunctionProvider lifecycle (stub SpawnFn, no network) --------------

serverless::FunctionProvider::SpawnFn stubSpawn() {
  return [](int seq) -> std::optional<serverless::FunctionSpawn> {
    return serverless::FunctionSpawn{
        net::Endpoint{net::Ipv4{0x0a000000u + static_cast<std::uint32_t>(seq)},
                      443},
        "stub-" + std::to_string(seq)};
  };
}

TEST(ServerlessProvider, PrewarmColdStartsInsideConfiguredBounds) {
  sim::Simulator sim(11);
  serverless::ProviderOptions opts;
  opts.prewarm = 3;
  opts.ttl = 0;
  serverless::FunctionProvider provider(sim, opts, stubSpawn());
  EXPECT_EQ(provider.liveCount(), 3);
  EXPECT_TRUE(provider.readyIds().empty());  // all still cold-starting

  sim.runUntil(2 * sim::kSecond);
  const auto ready = provider.readyIds();
  ASSERT_EQ(ready.size(), 3u);
  for (const int id : ready) {
    const auto* ep = provider.get(id);
    ASSERT_NE(ep, nullptr);
    const sim::Time cold = ep->ready_at - ep->spawned_at;
    EXPECT_GE(cold, serverless::kColdStartMin);
    EXPECT_LE(cold, serverless::kColdStartMax);
  }
}

TEST(ServerlessProvider, TtlReapsAndRespawnsWithFreshIds) {
  sim::Simulator sim(12);
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.ttl = 5 * sim::kSecond;
  serverless::FunctionProvider provider(sim, opts, stubSpawn());
  sim.runUntil(30 * sim::kSecond);

  EXPECT_GT(provider.reaps(), 0u);
  EXPECT_GE(provider.liveCount(), 2);  // floor restored after every reap
  // Ids are a monotone sequence: every live id postdates every reaped one.
  for (const int id : provider.readyIds())
    EXPECT_GE(id, static_cast<int>(provider.reaps()));
}

TEST(ServerlessProvider, BanRetireChargesCostAndRefillsFloor) {
  sim::Simulator sim(13);
  serverless::CostModel cost(sim);
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.ttl = 0;
  serverless::FunctionProvider provider(sim, opts, stubSpawn(), &cost);
  sim.runUntil(2 * sim::kSecond);

  const auto ready = provider.readyIds();
  ASSERT_FALSE(ready.empty());
  provider.retire(ready.front(), "ban");
  EXPECT_EQ(cost.bans(), 1u);
  EXPECT_EQ(provider.liveCount(), 2);  // floor refilled immediately
  EXPECT_EQ(provider.spawns(), 3u);
  EXPECT_EQ(provider.get(ready.front()), nullptr);  // id never reused
}

TEST(ServerlessProvider, StaticSetDeclinesEverySpawnAfterPrewarm) {
  sim::Simulator sim(14);
  serverless::ProviderOptions opts;
  opts.prewarm = 2;
  opts.respawn = false;
  opts.ttl = 0;
  serverless::FunctionProvider provider(sim, opts, stubSpawn());
  sim.runUntil(2 * sim::kSecond);

  EXPECT_EQ(provider.spawn("demand"), -1);
  const auto ready = provider.readyIds();
  ASSERT_EQ(ready.size(), 2u);
  provider.retire(ready.front(), "ban");
  provider.retire(ready.back(), "ban");
  EXPECT_EQ(provider.liveCount(), 0);  // exhausted for good
  EXPECT_EQ(provider.spawns(), 2u);
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

TEST(ServerlessTestbed, PageLoadsThroughFrontedDispatcher) {
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
  ASSERT_NE(provider, nullptr);
  // Let the pre-warmed endpoints finish their fronted dials.
  bed.sim().runUntil(bed.sim().now() + 5 * sim::kSecond);
  const auto ready_ids = provider->readyIds();
  ASSERT_FALSE(ready_ids.empty());
  const net::Ipv4 banned_ip = provider->get(ready_ids.front())->remote.ip;
  const std::uint64_t spawns_before = provider->spawns();

  bed.gfw().ips().add(banned_ip);  // the GFW confirms one endpoint
  bed.sim().runUntil(bed.sim().now() + 20 * sim::kSecond);

  // The banned endpoint was retired and replaced on a fresh IP.
  EXPECT_FALSE(provider->idFor(banned_ip).has_value());
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
  auto* cost = bed.serverlessCost();
  ASSERT_NE(provider, nullptr);
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
  const std::uint64_t reaps = provider->retires();
  for (const int id : provider->readyIds()) provider->retire(id, "ttl");
  ASSERT_GT(provider->retires(), reaps);

  ASSERT_TRUE(bed.sim().runWhile([&] { return done; },
                                 bed.sim().now() + 2 * sim::kMinute));
  EXPECT_TRUE(page_ok);
  // Past the drain deadline no reaped tunnel is left connected.
  bed.sim().runUntil(bed.sim().now() + 45 * sim::kSecond);
  EXPECT_LE(bed.serverlessDispatcher()->connectedCount(),
            provider->liveCount());
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
  ASSERT_NE(bed.serverlessDispatcher(), nullptr);
  EXPECT_EQ(bed.serverlessDispatcher()->connectedCount(), 0);
}

// ---- chaos cells ---------------------------------------------------------

TEST(ServerlessChaos, EphemeralSurvivesBanWaveStaticSetDies) {
  measure::ServerlessCellOptions opt;
  opt.script = chaos::endpointBanWave(5 * sim::kSecond, 4);
  opt.duration = 60 * sim::kSecond;

  measure::ServerlessCellOptions frozen = opt;
  frozen.respawn = false;
  frozen.prewarm = 2;
  frozen.max_live = 2;
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
  opt.max_live = 2;
  opt.ttl = 0;
  const auto r = measure::runServerlessCell(opt);
  EXPECT_GT(r.attempts, 0);
  EXPECT_GT(r.bans, 0u);
  EXPECT_EQ(digestOf(r), 0xf01475489e60add5ULL) << std::hex << digestOf(r);
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
  EXPECT_EQ(digest, 0x315d9ad1b3af4140ULL) << std::hex << digest;
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
  EXPECT_EQ(digestOf(serial[0]), 0xb0d69e91817305e2ULL)
      << std::hex << digestOf(serial[0]);
  EXPECT_EQ(digestOf(serial[1]), 0x7aee345b487f5009ULL)
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
