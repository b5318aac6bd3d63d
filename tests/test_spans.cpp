// Tests for the causal span tier: SpanTracer context/parenting semantics,
// the MultiSink fan-out regression, exporter round-trips, ring-overwrite
// independence (span storage survives event overwrite), critical-path
// attribution exactness, SLO burn-rate alert transitions, and the
// end-to-end acceptance properties — phase sums equal to PLT and
// byte-identical span exports at any thread count.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "measure/campaign.h"
#include "measure/parallel.h"
#include "measure/testbed.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace sc::obs {
namespace {

// ---- MultiSink: Tracer::setSink holds one tap; the fan-out must not ----

TEST(MultiSink, EveryObserverSeesEveryEvent) {
  Tracer tr;
  tr.enable();
  int first = 0, second = 0;
  MultiSink sinks;
  sinks.add([&](const Event&) { ++first; });
  sinks.installOn(tr);
  // Copies share state: adding after installation must still take effect
  // (the chaos RecoveryTracker installs early, exporters attach later).
  MultiSink alias = sinks;
  alias.add([&](const Event&) { ++second; });
  EXPECT_EQ(sinks.size(), 2u);

  Event ev;
  ev.what = "x";
  tr.record(ev);
  tr.record(ev);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);
}

TEST(MultiSink, NullSinksAreIgnored) {
  MultiSink sinks;
  sinks.add(nullptr);
  sinks.add(Tracer::Sink{});
  EXPECT_EQ(sinks.size(), 0u);
  Event ev;
  sinks.sink()(ev);  // empty fan-out is callable and harmless
}

// ---- Name tables stay exhaustive as enums grow ----

TEST(Names, EventTypeNamesUniqueAndNonEmpty) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const char* name = eventTypeName(static_cast<EventType>(i));
    EXPECT_STRNE(name, "") << "EventType " << i;
    EXPECT_STRNE(name, "?") << "EventType " << i << " missing a name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(seen.size(), kEventTypeCount);
}

TEST(Names, SpanKindAndStatusNamesUniqueAndNonEmpty) {
  std::set<std::string> kinds;
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    const char* name = spanKindName(static_cast<SpanKind>(i));
    EXPECT_STRNE(name, "?") << "SpanKind " << i << " missing a name";
    EXPECT_TRUE(kinds.insert(name).second) << "duplicate name " << name;
  }
  std::set<std::string> statuses;
  for (int i = 0; i <= static_cast<int>(SpanStatus::kCancelled); ++i) {
    const char* name = spanStatusName(static_cast<SpanStatus>(i));
    EXPECT_STRNE(name, "?") << "SpanStatus " << i << " missing a name";
    EXPECT_TRUE(statuses.insert(name).second);
  }
}

// ---- SpanTracer semantics ----

TEST(SpanTracer, DisabledBeginReturnsZeroAndMutatorsIgnoreIt) {
  SpanTracer sp;
  EXPECT_EQ(sp.begin(SpanKind::kDnsLookup, 1), 0u);
  sp.end(0, SpanStatus::kOk);
  sp.pop(0, SpanStatus::kOk);
  sp.setWhat(0, "x");
  EXPECT_TRUE(sp.spans().empty());
  EXPECT_EQ(sp.openSpans(), 0u);
}

TEST(SpanTracer, SpansOfFoldsHubAndEnabledChecks) {
  sim::Simulator sim(1);
  EXPECT_EQ(spansOf(sim), nullptr);  // no hub
  Hub hub(sim);
  EXPECT_EQ(spansOf(sim), nullptr);  // hub, spans off
  hub.spans().enable();
  EXPECT_EQ(spansOf(sim), &hub.spans());
}

TEST(SpanTracer, PerTagContextParentsAndDenseIds) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();

  const SpanId access = sp.push(SpanKind::kAccess, 7);
  const SpanId dns = sp.begin(SpanKind::kDnsLookup, 7);
  const SpanId other_tag = sp.begin(SpanKind::kDnsLookup, 8);
  sp.end(dns, SpanStatus::kOk);
  sp.pop(access, SpanStatus::kOk);
  const SpanId after = sp.begin(SpanKind::kTcpConnect, 7);

  const auto& spans = sp.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].id, i + 1);  // dense, begin-ordered
  EXPECT_EQ(spans[dns - 1].parent, access);   // same tag -> parented
  EXPECT_EQ(spans[other_tag - 1].parent, 0u); // other tag -> root
  EXPECT_EQ(spans[after - 1].parent, 0u);     // context popped -> root
  EXPECT_EQ(sp.current(7), 0u);
}

TEST(SpanTracer, PopOutOfOrderRemovesFromAnywhereInStack) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();
  const SpanId outer = sp.push(SpanKind::kAccess, 1);
  const SpanId inner = sp.push(SpanKind::kTunnelHandshake, 1);
  sp.pop(outer, SpanStatus::kOk);  // outer finishes first
  EXPECT_EQ(sp.current(1), inner);
  sp.pop(inner, SpanStatus::kOk);
  EXPECT_EQ(sp.current(1), 0u);
  EXPECT_EQ(sp.openSpans(), 0u);
}

TEST(SpanTracer, EndIsIdempotentAndStampsSimTime) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();
  SpanId id = 0;
  sim.schedule(1000, [&] { id = sp.begin(SpanKind::kTcpConnect, 2); });
  sim.schedule(4000, [&] { sp.end(id, SpanStatus::kError, -1); });
  sim.schedule(9000, [&] { sp.end(id, SpanStatus::kOk, 5); });  // ignored
  sim.run();
  const Span& span = sp.spans().at(id - 1);
  EXPECT_EQ(span.start, 1000);
  EXPECT_EQ(span.end, 4000);
  EXPECT_EQ(span.status, SpanStatus::kError);
  EXPECT_EQ(span.a, -1);
}

// Span storage grows; the event ring overwrites. The two must not couple:
// mirrored kSpanEnd events may fall out of the ring while every span
// survives in order.
TEST(SpanTracer, SpansSurviveEventRingOverwrite) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.tracer().enable(/*cap=*/4);
  hub.spans().enable();
  for (int i = 0; i < 10; ++i) {
    const SpanId id = hub.spans().begin(SpanKind::kUpstreamFetch, 3);
    hub.spans().end(id, SpanStatus::kOk, i);
  }
  EXPECT_EQ(hub.tracer().recorded(), 10u);  // one kSpanEnd per span
  EXPECT_EQ(hub.tracer().overwritten(), 6u);
  const auto& spans = hub.spans().spans();
  ASSERT_EQ(spans.size(), 10u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 1);
    EXPECT_EQ(spans[i].status, SpanStatus::kOk);
  }
  for (const auto& ev : hub.tracer().events())
    EXPECT_EQ(ev.type, EventType::kSpanEnd);
}

// ---- Exporters ----

TEST(SpanExport, JsonlRoundTrip) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();
  SpanId access = 0, dns = 0;
  sim.schedule(1000, [&] {
    access = sp.push(SpanKind::kAccess, 3, "", "scholar.google.com");
  });
  sim.schedule(2000, [&] {
    dns = sp.begin(SpanKind::kDnsLookup, 3, "cache", "scholar.google.com");
  });
  sim.schedule(3000, [&] { sp.end(dns, SpanStatus::kOk, 42); });
  sim.schedule(5000, [&] { sp.pop(access, SpanStatus::kError, -7); });
  sim.run();

  std::ostringstream out;
  writeSpansJsonl(sp.spans(), out);
  std::istringstream in(out.str());
  const auto rows = readSpansJsonl(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].id, access);
  EXPECT_EQ(rows[0].parent, 0u);
  EXPECT_EQ(rows[0].kind, "access");
  EXPECT_EQ(rows[0].status, "error");
  EXPECT_EQ(rows[0].start, 1000);
  EXPECT_EQ(rows[0].end, 5000);
  EXPECT_EQ(rows[0].tag, 3u);
  EXPECT_EQ(rows[0].detail, "scholar.google.com");
  EXPECT_EQ(rows[0].a, -7);
  EXPECT_EQ(rows[1].parent, access);
  EXPECT_EQ(rows[1].kind, "dns_lookup");
  EXPECT_EQ(rows[1].status, "ok");
  EXPECT_EQ(rows[1].what, "cache");
  EXPECT_EQ(rows[1].a, 42);
}

TEST(SpanExport, ChromeTraceShapeAndTrackAssignment) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();
  SpanId access = 0, child = 0;
  sim.schedule(100, [&] { access = sp.push(SpanKind::kAccess, 9); });
  sim.schedule(200, [&] { child = sp.begin(SpanKind::kProxyHop, 9); });
  sim.schedule(300, [&] { sp.end(child, SpanStatus::kOk); });
  sim.schedule(400, [&] { sp.pop(access, SpanStatus::kOk); });
  sim.run();

  std::ostringstream out;
  writeChromeTrace(sp.spans(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // One complete event per span, pid = measure tag, tid = root of the tree
  // (each access gets its own track).
  std::size_t complete = 0;
  for (std::size_t pos = text.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = text.find("\"ph\":\"X\"", pos + 1))
    ++complete;
  EXPECT_EQ(complete, sp.spans().size());
  EXPECT_NE(text.find("\"pid\":9"), std::string::npos);
  EXPECT_NE(text.find("\"tid\":" + std::to_string(access)),
            std::string::npos);
}

TEST(SpanExport, WaterfallRendersTreeWithDurations) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.spans().enable();
  auto& sp = hub.spans();
  SpanId access = 0, child = 0;
  sim.schedule(0, [&] { access = sp.push(SpanKind::kAccess, 5); });
  sim.schedule(1000, [&] {
    child = sp.begin(SpanKind::kTlsHandshake, 5, "resumed");
  });
  sim.schedule(2000, [&] { sp.end(child, SpanStatus::kOk); });
  sim.schedule(4000, [&] { sp.pop(access, SpanStatus::kOk); });
  sim.run();

  std::ostringstream out;
  renderWaterfall(sp.spans(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("access"), std::string::npos);
  EXPECT_NE(text.find("tls_handshake"), std::string::npos);
  EXPECT_NE(text.find("4.000"), std::string::npos);  // root ms duration
  EXPECT_NE(text.find('#'), std::string::npos);      // a drawn bar
}

// ---- Critical-path attribution ----

std::vector<Span> handBuiltTree() {
  std::vector<Span> spans;
  const auto add = [&](SpanId parent, SpanKind kind, sim::Time start,
                       sim::Time end, SpanStatus status) {
    Span s;
    s.id = spans.size() + 1;
    s.parent = parent;
    s.kind = kind;
    s.start = start;
    s.end = end;
    s.status = status;
    s.tag = 1;
    spans.push_back(std::move(s));
    return s.id;
  };
  const SpanId access =
      add(0, SpanKind::kAccess, 0, 100, SpanStatus::kOk);
  add(access, SpanKind::kDnsLookup, 10, 40, SpanStatus::kOk);
  const SpanId fetch =
      add(access, SpanKind::kUpstreamFetch, 30, 90, SpanStatus::kOk);
  add(fetch, SpanKind::kTlsHandshake, 35, 60, SpanStatus::kError);
  return spans;
}

TEST(CritPath, InnermostSpanWinsAndSumsMatchExactly) {
  const auto spans = handBuiltTree();
  const auto attr = attributeAccess(spans, 1);
  EXPECT_TRUE(attr.ok);
  EXPECT_EQ(attr.total, 100);
  // dns [10,40) loses [30,40) to the later-started fetch; fetch loses
  // [35,60) to the deeper tls handshake; [0,10) and [90,100) are self.
  EXPECT_EQ(attr.times[static_cast<std::size_t>(SpanKind::kDnsLookup)], 20);
  EXPECT_EQ(attr.times[static_cast<std::size_t>(SpanKind::kUpstreamFetch)],
            35);
  EXPECT_EQ(attr.times[static_cast<std::size_t>(SpanKind::kTlsHandshake)],
            25);
  EXPECT_EQ(attr.self, 20);
  sim::Time sum = attr.self;
  for (const auto t : attr.times) sum += t;
  EXPECT_EQ(sum, attr.total);
  EXPECT_EQ(attr.errors[static_cast<std::size_t>(SpanKind::kTlsHandshake)],
            1u);
}

TEST(CritPath, OpenDescendantsClampToAccessEnd) {
  auto spans = handBuiltTree();
  Span hung;
  hung.id = spans.size() + 1;
  hung.parent = 1;
  hung.kind = SpanKind::kGfwTraversal;
  hung.start = 92;
  hung.end = 0;  // never classified
  hung.status = SpanStatus::kOpen;
  hung.tag = 1;
  spans.push_back(hung);
  const auto attr = attributeAccess(spans, 1);
  EXPECT_EQ(attr.times[static_cast<std::size_t>(SpanKind::kGfwTraversal)],
            8);  // clamped to [92, 100)
  sim::Time sum = attr.self;
  for (const auto t : attr.times) sum += t;
  EXPECT_EQ(sum, attr.total);
}

TEST(CritPath, AggregateFoldsAndReportsDominant) {
  const auto spans = handBuiltTree();
  const auto breakdown = aggregateBreakdowns(attributeAll(spans));
  EXPECT_EQ(breakdown.accesses, 1u);
  EXPECT_EQ(breakdown.ok_accesses, 1u);
  EXPECT_TRUE(breakdown.sumsMatch());
  EXPECT_EQ(breakdown.dominant(), SpanKind::kUpstreamFetch);
}

// ---- SLO engine ----

TEST(Slo, MinSamplesGuardsColdStart) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.tracer().enable();
  SloConfig cfg;
  cfg.min_samples = 10;
  auto& slo = hub.installSlo(cfg);
  sim::Time t = 0;
  for (int i = 0; i < 5; ++i) slo.sample(t += sim::kSecond, false, 0);
  EXPECT_EQ(slo.availabilityLevel(), 0);  // one bad burst is not 100x burn
  EXPECT_EQ(slo.alertsFired(), 0u);
}

TEST(Slo, PageThenClearOnRecovery) {
  sim::Simulator sim(1);
  Hub hub(sim);
  hub.tracer().enable();
  SloConfig cfg;
  cfg.min_samples = 5;
  auto& slo = hub.installSlo(cfg);

  sim::Time t = 0;
  for (int i = 0; i < 20; ++i) slo.sample(t += sim::kSecond, true, sim::kSecond);
  EXPECT_EQ(slo.availabilityLevel(), 0);
  for (int i = 0; i < 10; ++i) slo.sample(t += sim::kSecond, false, 0);
  EXPECT_EQ(slo.availabilityLevel(), 2);  // both windows burn far above 14x

  // Recovery: failures age out of the 5-minute short window.
  for (int i = 0; i < 400; ++i)
    slo.sample(t += sim::kSecond, true, sim::kSecond);
  EXPECT_EQ(slo.availabilityLevel(), 0);

  EXPECT_GE(hub.registry().counter("sc.slo.alerts_page")->value(), 1u);
  EXPECT_GE(hub.registry().counter("sc.slo.alerts_clear")->value(), 1u);
  // Failed accesses spend the latency budget too, so the latency objective
  // alerts alongside availability; assert the availability pair exists.
  bool saw_page = false, saw_clear = false;
  for (const auto& ev : hub.tracer().events()) {
    if (ev.type != EventType::kSloAlert || ev.detail != "availability")
      continue;
    if (std::string(ev.what) == "page") saw_page = true;
    if (std::string(ev.what) == "clear") saw_clear = true;
  }
  EXPECT_TRUE(saw_page);
  EXPECT_TRUE(saw_clear);
}

TEST(Slo, SlowSuccessesSpendLatencyBudgetOnly) {
  sim::Simulator sim(1);
  Hub hub(sim);
  SloConfig cfg;
  cfg.min_samples = 5;
  auto& slo = hub.installSlo(cfg);
  sim::Time t = 0;
  // Every access succeeds but takes 10s against an 8s objective.
  for (int i = 0; i < 30; ++i)
    slo.sample(t += sim::kSecond, true, 10 * sim::kSecond);
  EXPECT_EQ(slo.availabilityLevel(), 0);
  EXPECT_EQ(slo.latencyLevel(), 2);
  const auto w = slo.window(kSloShortWindow);
  EXPECT_EQ(w.errors, 0u);
  EXPECT_GT(w.slow, 0u);
  EXPECT_EQ(w.latency_p99, 10 * sim::kSecond);
}

// ---- End to end: the testbed with spans on ----

TEST(SpanEndToEnd, CampaignPhaseSumsEqualPlt) {
  measure::TestbedOptions topts;
  topts.spans = true;
  measure::Testbed tb(topts);
  measure::CampaignOptions copts;
  copts.accesses = 4;
  copts.measure_rtt = false;
  const auto result = measure::runAccessCampaign(
      tb, measure::Method::kShadowsocks, 130, copts);
  ASSERT_TRUE(result.setup_ok);

  const auto& spans = tb.hub().spans().spans();
  EXPECT_GT(spans.size(), 0u);
  const auto attrs = attributeAll(spans);
  ASSERT_GT(attrs.size(), 0u);
  for (const auto& attr : attrs) {
    sim::Time sum = attr.self;
    for (const auto time : attr.times) sum += time;
    EXPECT_EQ(sum, attr.total) << "access " << attr.access;
  }
  const auto breakdown = aggregateBreakdowns(attrs);
  EXPECT_TRUE(breakdown.sumsMatch());
  EXPECT_GT(
      breakdown.counts[static_cast<std::size_t>(SpanKind::kUpstreamFetch)],
      0u);
  EXPECT_GT(
      breakdown.counts[static_cast<std::size_t>(SpanKind::kGfwTraversal)],
      0u);
}

TEST(SpanEndToEnd, SpansOffRecordsNothing) {
  measure::Testbed tb;
  measure::CampaignOptions copts;
  copts.accesses = 2;
  copts.measure_rtt = false;
  const auto result = measure::runAccessCampaign(
      tb, measure::Method::kScholarCloud, 131, copts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_TRUE(tb.hub().spans().spans().empty());
  EXPECT_EQ(tb.hub().spans().openSpans(), 0u);
}

TEST(SpanEndToEnd, SameSeedByteIdenticalSpanExportAcrossThreads) {
  std::vector<measure::CampaignTrial> trials;
  std::uint32_t tag = 210;
  for (const auto method :
       {measure::Method::kShadowsocks, measure::Method::kScholarCloud,
        measure::Method::kOpenVpn}) {
    measure::CampaignTrial trial;
    trial.method = method;
    trial.tag = tag++;
    trial.campaign.accesses = 3;
    trial.campaign.measure_rtt = false;
    trial.testbed.seed = 7;
    trial.testbed.spans = true;
    trials.push_back(trial);
  }
  const auto serial = measure::runCells(trials, 1, measure::runCampaignTrial);
  const auto parallel =
      measure::runCells(trials, 4, measure::runCampaignTrial);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].spans_jsonl.empty()) << "cell " << i;
    EXPECT_EQ(serial[i].spans_jsonl, parallel[i].spans_jsonl)
        << "cell " << i;
  }
}

}  // namespace
}  // namespace sc::obs
