#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chaos/engine.h"
#include "chaos/fault.h"
#include "chaos/injector.h"
#include "chaos/recovery.h"
#include "chaos/scripts.h"
#include "dns/resolver.h"
#include "dns/server.h"
#include "gfw/gfw.h"
#include "helpers.h"
#include "measure/chaos_scenario.h"
#include "obs/hub.h"

namespace sc::chaos {
namespace {

using test::MiniWorld;

// ---- ChaosScript ---------------------------------------------------------

TEST(ChaosScript, EventsSortByTimeWithInsertionOrderTieBreak) {
  ChaosScript s;
  const int late = s.linkDown(30 * sim::kSecond, "transpacific");
  const int early = s.ipBan(10 * sim::kSecond, "1.2.3.4");
  const int tie_a = s.probingSurge(20 * sim::kSecond, 2.0);
  const int tie_b = s.dpiRamp(20 * sim::kSecond, 2.0, false);

  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.events()[0].id, early);
  EXPECT_EQ(s.events()[1].id, tie_a);  // same instant: script order
  EXPECT_EQ(s.events()[2].id, tie_b);
  EXPECT_EQ(s.events()[3].id, late);
  // Ids are dense add-order, independent of the sorted position.
  EXPECT_EQ(late, 0);
  EXPECT_EQ(early, 1);
  ASSERT_NE(s.find(late), nullptr);
  EXPECT_EQ(s.find(late)->kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.find(99), nullptr);
}

TEST(ChaosScript, CannedScriptsAllBanEgress) {
  // Every canned script must exercise the fleet's retire/respawn loop.
  for (const auto& canned : cannedScripts(10 * sim::kSecond)) {
    bool has_egress_ban = false;
    for (const FaultEvent& ev : canned.script.events())
      if (ev.kind == FaultKind::kIpBan && ev.target == "egress" &&
          ev.duration > 0)
        has_egress_ban = true;
    EXPECT_TRUE(has_egress_ban) << canned.name;
  }
}

// ---- LinkInjector --------------------------------------------------------

TEST(LinkInjector, DownAndDegradeApplyAndRevert) {
  MiniWorld w;
  net::Link* border = w.network.findLink("transpacific");
  ASSERT_NE(border, nullptr);
  LinkInjector inj(w.network);

  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.target = "transpacific";
  down.id = 0;
  ASSERT_TRUE(inj.handles(down));
  ASSERT_TRUE(inj.apply(down));
  EXPECT_FALSE(border->isUp());
  inj.revert(down);
  EXPECT_TRUE(border->isUp());

  const net::LinkParams before = border->params();
  FaultEvent degrade;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.target = "transpacific";
  degrade.magnitude = 0.25;
  degrade.arg = 40;  // +40ms propagation
  degrade.id = 1;
  ASSERT_TRUE(inj.apply(degrade));
  EXPECT_DOUBLE_EQ(border->params().loss_rate, 0.25);
  EXPECT_EQ(border->params().prop_delay,
            before.prop_delay + 40 * sim::kMillisecond);
  inj.revert(degrade);
  EXPECT_DOUBLE_EQ(border->params().loss_rate, before.loss_rate);
  EXPECT_EQ(border->params().prop_delay, before.prop_delay);

  FaultEvent missing;
  missing.kind = FaultKind::kLinkDown;
  missing.target = "no-such-link";
  EXPECT_FALSE(inj.apply(missing));  // claimed but inapplicable
}

TEST(Link, DownedLinkBlackholesTraffic) {
  MiniWorld w;
  net::Link* border = w.network.findLink("transpacific");
  ASSERT_NE(border, nullptr);

  bool connected = false;
  auto listener = w.server.tcpListen(80, [](transport::TcpSocket::Ptr) {});
  border->setUp(false);
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80},
      [&](const auto& conn) { const bool ok = conn != nullptr; connected = ok; });
  w.sim.runUntil(2 * sim::kSecond);
  EXPECT_FALSE(connected);  // SYNs eaten silently, no reset either

  // Link back up: retransmits get through and the handshake completes.
  border->setUp(true);
  w.runUntilDone([&] { return connected; });
  EXPECT_TRUE(connected);
}

// ---- GfwInjector ---------------------------------------------------------

struct GfwHarness {
  sim::Simulator sim{7};
  net::Network network{sim};
  gfw::Gfw gfw{network, gfw::GfwConfig{}};
};

TEST(GfwInjector, DpiRampScalesDisciplinesAndRestores) {
  GfwHarness h;
  GfwInjector inj(h.gfw);
  const gfw::GfwConfig before = h.gfw.config();
  const std::uint64_t v0 = h.gfw.policyVersion();

  FaultEvent ramp;
  ramp.kind = FaultKind::kDpiRamp;
  ramp.magnitude = 4.0;
  ramp.arg = 1;  // ban VPN protocols
  ramp.id = 0;
  ASSERT_TRUE(inj.apply(ramp));
  EXPECT_TRUE(h.gfw.config().block_vpn_protocols);
  // 0.25 * 4 saturates at 1.0: every classified VPN packet drops.
  EXPECT_DOUBLE_EQ(h.gfw.config().vpn_block_discipline, 1.0);
  EXPECT_DOUBLE_EQ(h.gfw.config().tor_discipline,
                   before.tor_discipline * 4.0);
  EXPECT_GT(h.gfw.policyVersion(), v0);

  inj.revert(ramp);
  EXPECT_FALSE(h.gfw.config().block_vpn_protocols);
  EXPECT_DOUBLE_EQ(h.gfw.config().vpn_block_discipline,
                   before.vpn_block_discipline);
}

TEST(GfwInjector, ProbingSurgeTightensProbeLoop) {
  GfwHarness h;
  GfwInjector inj(h.gfw);
  const gfw::GfwConfig before = h.gfw.config();

  FaultEvent surge;
  surge.kind = FaultKind::kProbingSurge;
  surge.magnitude = 4.0;
  surge.id = 0;
  ASSERT_TRUE(inj.apply(surge));
  EXPECT_EQ(h.gfw.config().probe_delay, before.probe_delay / 4);
  EXPECT_EQ(h.gfw.config().suspect_block_ttl, before.suspect_block_ttl * 4);
  inj.revert(surge);
  EXPECT_EQ(h.gfw.config().probe_delay, before.probe_delay);
}

TEST(GfwInjector, IpBanResolvesSymbolicTargetsAndLiftsCleanly) {
  GfwHarness h;
  const net::Ipv4 egress(34, 9, 9, 9);
  GfwInjector inj(h.gfw, [egress](const std::string& target)
                             -> std::optional<net::Ipv4> {
    return target == "egress" ? std::optional<net::Ipv4>(egress)
                              : std::nullopt;
  });
  std::uint64_t churns = 0;
  h.gfw.ips().setOnChange([&churns] { ++churns; });

  FaultEvent literal;
  literal.kind = FaultKind::kIpBan;
  literal.target = "5.6.7.8";
  literal.id = 0;
  ASSERT_TRUE(inj.apply(literal));
  EXPECT_TRUE(h.gfw.ips().isBlocked(net::Ipv4(5, 6, 7, 8), 0));

  FaultEvent symbolic;
  symbolic.kind = FaultKind::kIpBan;
  symbolic.target = "egress";
  symbolic.id = 1;
  ASSERT_TRUE(inj.apply(symbolic));
  EXPECT_TRUE(h.gfw.ips().isBlocked(egress, 0));

  inj.revert(symbolic);
  EXPECT_FALSE(h.gfw.ips().isBlocked(egress, 0));
  EXPECT_TRUE(h.gfw.ips().isBlocked(net::Ipv4(5, 6, 7, 8), 0));
  EXPECT_EQ(churns, 3u);  // two bans + one lift, each a churn edge

  FaultEvent unresolvable;
  unresolvable.kind = FaultKind::kIpBan;
  unresolvable.target = "no-such-symbol";
  unresolvable.id = 2;
  EXPECT_FALSE(inj.apply(unresolvable));
}

TEST(GfwInjector, BlocklistWaveAddsAndRemovesDomains) {
  GfwHarness h;
  GfwInjector inj(h.gfw);
  FaultEvent wave;
  wave.kind = FaultKind::kBlocklistWave;
  wave.target = "bridges.example, mirror.example";
  wave.id = 0;
  ASSERT_TRUE(inj.apply(wave));
  EXPECT_TRUE(h.gfw.domains().isBlocked("www.bridges.example"));
  EXPECT_TRUE(h.gfw.domains().isBlocked("mirror.example"));
  inj.revert(wave);
  EXPECT_FALSE(h.gfw.domains().isBlocked("mirror.example"));
}

// ---- DnsInjector ---------------------------------------------------------

TEST(DnsInjector, CrashAndPoisonRoundTrip) {
  MiniWorld w;
  dns::DnsServer server(w.server);
  server.addRecord("scholar.google.com", net::Ipv4(34, 1, 2, 3));
  dns::Resolver resolver(w.client, w.server_node.primaryIp());
  DnsInjector inj(server, "us-dns");

  // Target grammar: only this server's name (crash) or "<name>:<host>".
  FaultEvent other;
  other.kind = FaultKind::kNodeCrash;
  other.target = "fleet:any";
  EXPECT_FALSE(inj.handles(other));

  FaultEvent poison;
  poison.kind = FaultKind::kDnsPoisonCampaign;
  poison.target = "us-dns:scholar.google.com";
  poison.id = 0;
  ASSERT_TRUE(inj.handles(poison));
  ASSERT_TRUE(inj.apply(poison));
  std::optional<net::Ipv4> got;
  resolver.resolve("scholar.google.com",
                   [&](std::optional<net::Ipv4> ip) { got = ip; });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(*got, kChaosSinkhole);

  inj.revert(poison);
  resolver.clearCache();
  got.reset();
  resolver.resolve("scholar.google.com",
                   [&](std::optional<net::Ipv4> ip) { got = ip; });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(*got, net::Ipv4(34, 1, 2, 3));

  FaultEvent crash;
  crash.kind = FaultKind::kNodeCrash;
  crash.target = "us-dns";
  crash.id = 1;
  ASSERT_TRUE(inj.apply(crash));
  EXPECT_FALSE(server.answering());
  const std::uint64_t served = server.queriesServed();
  resolver.clearCache();
  bool answered = false;
  resolver.resolve("scholar.google.com",
                   [&](std::optional<net::Ipv4>) { answered = true; });
  w.sim.runUntil(w.sim.now() + 3 * sim::kSecond);
  EXPECT_EQ(server.queriesServed(), served);  // queries vanish
  inj.revert(crash);
  EXPECT_TRUE(server.answering());
  (void)answered;
}

// ---- ChaosEngine ---------------------------------------------------------

// Records apply/revert edges with timestamps; claims one kind.
struct FakeInjector final : Injector {
  sim::Simulator& sim;
  FaultKind kind;
  bool applies = true;
  std::vector<std::pair<int, sim::Time>> applied, reverted;

  FakeInjector(sim::Simulator& sim_, FaultKind kind_)
      : sim(sim_), kind(kind_) {}
  const char* layer() const override { return "fake"; }
  bool handles(const FaultEvent& ev) const override {
    return ev.kind == kind;
  }
  bool apply(const FaultEvent& ev) override {
    if (!applies) return false;
    applied.push_back({ev.id, sim.now()});
    return true;
  }
  void revert(const FaultEvent& ev) override {
    reverted.push_back({ev.id, sim.now()});
  }
};

TEST(ChaosEngine, AppliesAtStartRevertsAtEndTracesEdges) {
  sim::Simulator sim(7);
  obs::Hub hub(sim);
  hub.tracer().enable();

  ChaosScript script;
  const int flap =
      script.linkDown(5 * sim::kSecond, "border", 10 * sim::kSecond);
  const int forever = script.linkDown(8 * sim::kSecond, "border");  // permanent
  const int foreign = script.ipBan(9 * sim::kSecond, "1.2.3.4");   // unclaimed

  ChaosEngine engine(sim, script);
  FakeInjector links(sim, FaultKind::kLinkDown);
  engine.addInjector(&links);
  engine.arm();
  sim.runUntil(30 * sim::kSecond);

  ASSERT_EQ(links.applied.size(), 2u);
  EXPECT_EQ(links.applied[0], (std::pair<int, sim::Time>{flap, 5 * sim::kSecond}));
  EXPECT_EQ(links.applied[1],
            (std::pair<int, sim::Time>{forever, 8 * sim::kSecond}));
  ASSERT_EQ(links.reverted.size(), 1u);  // the permanent fault never lifts
  EXPECT_EQ(links.reverted[0],
            (std::pair<int, sim::Time>{flap, 15 * sim::kSecond}));
  EXPECT_EQ(engine.applied(), 2u);
  EXPECT_EQ(engine.reverted(), 1u);
  EXPECT_EQ(engine.unhandled(), 1u);

  int begins = 0, ends = 0, unhandled = 0;
  for (const obs::Event& ev : hub.tracer().events()) {
    if (ev.type != obs::EventType::kChaosFault) continue;
    if (std::string(ev.what) == "begin") ++begins;
    if (std::string(ev.what) == "end") ++ends;
    if (std::string(ev.what) == "unhandled") {
      ++unhandled;
      EXPECT_EQ(ev.a, foreign);
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(unhandled, 1);

  // Registry counters mirror the tallies.
  auto* reg = obs::registryOf(sim);
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter("sc.chaos.faults_injected")->value(), 2u);
  EXPECT_EQ(reg->counter("sc.chaos.faults_unhandled")->value(), 1u);
}

TEST(ChaosEngine, RejectedApplyCountsAsUnhandled) {
  sim::Simulator sim(7);
  ChaosScript script;
  script.linkDown(sim::kSecond, "border", 5 * sim::kSecond);
  ChaosEngine engine(sim, script);
  FakeInjector links(sim, FaultKind::kLinkDown);
  links.applies = false;  // claims the kind, cannot act in this world
  engine.addInjector(&links);
  engine.arm();
  sim.runUntil(10 * sim::kSecond);
  EXPECT_EQ(engine.applied(), 0u);
  EXPECT_EQ(engine.unhandled(), 1u);
  EXPECT_TRUE(links.reverted.empty());  // nothing applied, nothing lifted
}

// ---- RecoveryTracker -----------------------------------------------------

struct TrackerHarness {
  sim::Simulator sim{7};
  obs::Hub hub{sim};
  ChaosScript script;

  TrackerHarness() { hub.tracer().enable(); }

  void emit(obs::EventType type, const char* what, sim::Time at,
            std::int64_t a = 0) {
    obs::Event ev;
    ev.at = at;
    ev.type = type;
    ev.what = what;
    ev.a = a;
    hub.tracer().record(std::move(ev));
  }
};

TEST(RecoveryTracker, MeasuresDetectAndRecoverPerFault) {
  TrackerHarness h;
  const int fault = h.script.ipBan(10 * sim::kSecond, "egress",
                                   30 * sim::kSecond);
  RecoveryTracker tracker(h.sim, h.script);
  tracker.attachTo(h.hub.tracer());

  using obs::EventType;
  h.emit(EventType::kAccessOutcome, "ok", 5 * sim::kSecond, 1200);
  h.emit(EventType::kChaosFault, "begin", 10 * sim::kSecond, fault);
  h.emit(EventType::kFleetProbe, "degraded", 12 * sim::kSecond, 1);
  h.emit(EventType::kAccessOutcome, "fail", 14 * sim::kSecond, -1);
  h.emit(EventType::kAccessOutcome, "fail", 16 * sim::kSecond, -1);
  h.emit(EventType::kAccessOutcome, "ok", 18 * sim::kSecond, 1500);
  h.emit(EventType::kChaosFault, "end", 40 * sim::kSecond, fault);

  ASSERT_EQ(tracker.records().size(), 1u);
  const FaultRecord& r = tracker.records()[0];
  EXPECT_TRUE(r.impacted());
  EXPECT_TRUE(r.recovered());
  EXPECT_EQ(r.began, 10 * sim::kSecond);
  EXPECT_EQ(r.first_fail, 12 * sim::kSecond);  // probe signal detects first
  EXPECT_EQ(r.recovered_at, 18 * sim::kSecond);
  EXPECT_EQ(r.detectLatency(), 2 * sim::kSecond);
  EXPECT_EQ(r.recoveryLatency(), 6 * sim::kSecond);
  EXPECT_EQ(r.requests_lost, 2u);
  EXPECT_EQ(tracker.impacted(), 1);
  EXPECT_EQ(tracker.recovered(), 1);
  EXPECT_EQ(tracker.unrecovered(), 0);
  EXPECT_DOUBLE_EQ(tracker.meanDetectSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.meanRecoverSeconds(), 6.0);
}

TEST(RecoveryTracker, PermanentFaultNeverRecovering) {
  TrackerHarness h;
  const int fault = h.script.dpiRamp(10 * sim::kSecond, 4.0, true);  // forever
  RecoveryTracker tracker(h.sim, h.script);
  tracker.attachTo(h.hub.tracer());

  using obs::EventType;
  h.emit(EventType::kChaosFault, "begin", 10 * sim::kSecond, fault);
  h.emit(EventType::kAccessOutcome, "fail", 20 * sim::kSecond, -1);
  h.emit(EventType::kAccessOutcome, "fail", 60 * sim::kSecond, -1);

  const FaultRecord& r = tracker.records()[0];
  EXPECT_TRUE(r.impacted());
  EXPECT_FALSE(r.recovered());
  EXPECT_EQ(r.requests_lost, 2u);
  EXPECT_EQ(tracker.unrecovered(), 1);
  EXPECT_DOUBLE_EQ(tracker.maxRecoverSeconds(), 0.0);
}

TEST(RecoveryTracker, FailureOutsideAnyWindowChargesNothing) {
  TrackerHarness h;
  const int fault =
      h.script.ipBan(10 * sim::kSecond, "egress", 5 * sim::kSecond);
  RecoveryTracker tracker(h.sim, h.script);
  tracker.attachTo(h.hub.tracer());

  using obs::EventType;
  h.emit(EventType::kChaosFault, "begin", 10 * sim::kSecond, fault);
  h.emit(EventType::kChaosFault, "end", 15 * sim::kSecond, fault);
  h.emit(EventType::kAccessOutcome, "fail", 20 * sim::kSecond, -1);

  EXPECT_EQ(tracker.impacted(), 0);
  EXPECT_EQ(tracker.requestsLost(), 0u);

  // Unhandled faults never accrue impact either.
  TrackerHarness h2;
  const int orphan = h2.script.nodeCrash(5 * sim::kSecond, "fleet:any");
  RecoveryTracker tracker2(h2.sim, h2.script);
  tracker2.attachTo(h2.hub.tracer());
  h2.emit(EventType::kChaosFault, "unhandled", 5 * sim::kSecond, orphan);
  h2.emit(EventType::kAccessOutcome, "fail", 6 * sim::kSecond, -1);
  EXPECT_EQ(tracker2.impacted(), 0);
  EXPECT_TRUE(tracker2.records()[0].unhandled);
}

// ---- chaos cells: determinism across thread counts -----------------------

TEST(ChaosScenario, SameSeedSameBytesAnyThreadCount) {
  // The acceptance bar: a chaos sweep's exported trace AND metrics are
  // byte-identical between a serial run and any parallel fan-out. Two cell
  // shapes — the fleet world (all four injectors, crash + egress bans) and
  // a Testbed baseline — at a deliberately small scale.
  std::vector<measure::ChaosCellOptions> cells;
  {
    measure::ChaosCellOptions c;
    c.method = measure::Method::kScholarCloud;
    c.fleet = true;
    c.fleet_size = 2;
    c.users = 2;
    c.script = ssEndpointDiscovery(4 * sim::kSecond);
    c.duration = 30 * sim::kSecond;
    cells.push_back(c);
  }
  {
    measure::ChaosCellOptions c;
    c.method = measure::Method::kNativeVpn;
    c.fleet = false;
    c.users = 1;
    c.script = semesterVpnBan(4 * sim::kSecond);
    c.duration = 30 * sim::kSecond;
    cells.push_back(c);
  }

  const auto serial = measure::runChaosCells(cells, 1);
  const auto parallel = measure::runChaosCells(cells, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << i;
    EXPECT_EQ(serial[i].successes, parallel[i].successes) << i;
    EXPECT_EQ(serial[i].requests_lost, parallel[i].requests_lost) << i;
    EXPECT_EQ(serial[i].trace_jsonl, parallel[i].trace_jsonl) << i;
    EXPECT_EQ(serial[i].metrics_jsonl, parallel[i].metrics_jsonl) << i;
    EXPECT_FALSE(serial[i].trace_jsonl.empty()) << i;
  }
  // The fleet cell actually went through the wringer.
  EXPECT_GT(serial[0].impacted, 0);
  EXPECT_EQ(serial[0].unrecovered, 0);
}

TEST(ChaosScenario, FleetWorldSurvivesEgressBanAndCrash) {
  measure::ChaosCellOptions c;
  c.method = measure::Method::kScholarCloud;
  c.fleet = true;
  c.fleet_size = 2;
  c.users = 2;
  c.script = ssEndpointDiscovery(4 * sim::kSecond);
  c.duration = 40 * sim::kSecond;
  const auto r = measure::runChaosCell(c);
  EXPECT_GT(r.attempts, 0);
  EXPECT_GT(r.successes, 0);
  EXPECT_GT(r.impacted, 0);
  EXPECT_EQ(r.unrecovered, 0);  // every impact healed within the run
  EXPECT_GT(r.mean_recover_s, 0.0);
}

}  // namespace
}  // namespace sc::chaos
