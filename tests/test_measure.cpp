#include <gtest/gtest.h>

#include "helpers.h"
#include "measure/campaign.h"
#include "measure/cell_world.h"
#include "measure/report.h"
#include "measure/resource_model.h"
#include "measure/stats.h"

namespace sc::measure {
namespace {

// ---- Samples / Summary ----

TEST(Stats, SummaryOfKnownValues) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.n, 5u);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 5.0);
  EXPECT_DOUBLE_EQ(sum.p50, 3.0);
  EXPECT_NEAR(sum.stddev, 1.5811, 1e-3);
}

TEST(Stats, EmptyAndSingleton) {
  Samples empty;
  EXPECT_EQ(empty.summarize().n, 0u);
  Samples one;
  one.add(7.0);
  const Summary sum = one.summarize();
  EXPECT_EQ(sum.n, 1u);
  EXPECT_DOUBLE_EQ(sum.mean, 7.0);
  EXPECT_DOUBLE_EQ(sum.stddev, 0.0);
  EXPECT_DOUBLE_EQ(sum.p95, 7.0);
}

TEST(Stats, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const Summary sum = s.summarize();
  EXPECT_NEAR(sum.p50, 50.5, 0.01);
  EXPECT_NEAR(sum.p95, 95.05, 0.1);
}

TEST(Stats, EmptySummaryIsAllZero) {
  const Summary sum = Samples{}.summarize();
  EXPECT_EQ(sum.n, 0u);
  EXPECT_DOUBLE_EQ(sum.mean, 0.0);
  EXPECT_DOUBLE_EQ(sum.min, 0.0);
  EXPECT_DOUBLE_EQ(sum.max, 0.0);
  EXPECT_DOUBLE_EQ(sum.p50, 0.0);
  EXPECT_DOUBLE_EQ(sum.p90, 0.0);
  EXPECT_DOUBLE_EQ(sum.p99, 0.0);
}

TEST(Stats, SingleSampleEveryPercentileIsThatSample) {
  Samples one;
  one.add(42.0);
  const Summary sum = one.summarize();
  EXPECT_DOUBLE_EQ(sum.p50, 42.0);
  EXPECT_DOUBLE_EQ(sum.p90, 42.0);
  EXPECT_DOUBLE_EQ(sum.p95, 42.0);
  EXPECT_DOUBLE_EQ(sum.p99, 42.0);
  EXPECT_DOUBLE_EQ(sum.min, 42.0);
  EXPECT_DOUBLE_EQ(sum.max, 42.0);
}

TEST(Stats, TwoSamplesInterpolateBetweenThem) {
  Samples s;
  s.add(10.0);
  s.add(20.0);
  const Summary sum = s.summarize();
  EXPECT_EQ(sum.n, 2u);
  // Lerp over [10, 20]: p = fraction of the way from min to max.
  EXPECT_DOUBLE_EQ(sum.p50, 15.0);
  EXPECT_DOUBLE_EQ(sum.p90, 19.0);
  EXPECT_DOUBLE_EQ(sum.p99, 19.9);
  EXPECT_NEAR(sum.stddev, 7.0711, 1e-3);  // sqrt(50)
}

TEST(Stats, HandComputedInterpolation) {
  // Four samples: idx(p) = 3p over sorted {1, 2, 4, 8}.
  Samples s;
  for (double v : {8.0, 1.0, 4.0, 2.0}) s.add(v);
  const Summary sum = s.summarize();
  EXPECT_DOUBLE_EQ(sum.p50, 3.0);    // idx 1.5 -> 2 + 0.5*(4-2)
  EXPECT_NEAR(sum.p90, 6.8, 1e-9);   // idx 2.7 -> 4 + 0.7*(8-4)
  EXPECT_NEAR(sum.p99, 7.88, 1e-9);  // idx 2.97
}

// ---- Report ----

TEST(Report, RowAndColumnRoundTrip) {
  Report report("title", {"c1", "c2"});
  report.addRow({"alpha", {1.0, 2.0}});
  report.addRow({"beta", {3.5, 4.5}});
  EXPECT_EQ(report.title(), "title");
  ASSERT_EQ(report.columns().size(), 2u);
  EXPECT_EQ(report.columns()[0], "c1");
  EXPECT_EQ(report.columns()[1], "c2");
  ASSERT_EQ(report.rows().size(), 2u);
  EXPECT_EQ(report.rows()[0].label, "alpha");
  EXPECT_DOUBLE_EQ(report.rows()[0].values[1], 2.0);
  EXPECT_EQ(report.rows()[1].label, "beta");
  ASSERT_EQ(report.rows()[1].values.size(), report.columns().size());
  EXPECT_DOUBLE_EQ(report.rows()[1].values[0], 3.5);
}

TEST(Stats, FormatMentionsAllFields) {
  Samples s;
  s.add(1.5);
  s.add(2.5);
  const std::string text = formatSummary(s.summarize(), "sec");
  EXPECT_NE(text.find("mean 2.00 sec"), std::string::npos);
  EXPECT_NE(text.find("n=2"), std::string::npos);
}

// ---- resource models: structural orderings, not magic numbers ----

CampaignResult fakeCampaign(Method m, std::uint64_t bytes, double plt_sub) {
  CampaignResult c;
  c.method = m;
  c.setup_ok = true;
  c.successes = 10;
  c.client_bytes = bytes * 10;
  Samples plt;
  plt.add(plt_sub);
  c.plt_sub_s = plt.summarize();
  c.connections_estimate = 8;
  return c;
}

TEST(ResourceModel, CpuOrderingMatchesFig6b) {
  // Same wire volume everywhere: ordering must come from the structure
  // (client-side crypto or not, Tor's heavier build and cell work).
  const auto vpn = modelCpu(fakeCampaign(Method::kNativeVpn, 30000, 1.2));
  const auto ovpn = modelCpu(fakeCampaign(Method::kOpenVpn, 30000, 1.2));
  const auto tor = modelCpu(fakeCampaign(Method::kTor, 30000, 2.8));
  const auto ss = modelCpu(fakeCampaign(Method::kShadowsocks, 30000, 2.0));
  EXPECT_LT(vpn.total(), ovpn.total());
  EXPECT_LT(ovpn.total(), tor.total());
  EXPECT_LT(ss.total(), tor.total());
  // Extra-client daemons exist only for OpenVPN and Shadowsocks, and their
  // cost is a small fraction of the browser's (the paper: "trivial").
  EXPECT_EQ(vpn.extra_client_pct, 0.0);
  EXPECT_GT(ovpn.extra_client_pct, 0.0);
  EXPECT_LT(ovpn.extra_client_pct, ovpn.browser_pct / 2);
}

TEST(ResourceModel, CpuScalesWithTraffic) {
  const auto light = modelCpu(fakeCampaign(Method::kOpenVpn, 10000, 1.2));
  const auto heavy = modelCpu(fakeCampaign(Method::kOpenVpn, 80000, 1.2));
  EXPECT_GT(heavy.total(), light.total());
}

TEST(ResourceModel, MemoryOrderingMatchesFig6c) {
  const auto vpn = modelMemory(fakeCampaign(Method::kNativeVpn, 30000, 1.2));
  const auto tor = modelMemory(fakeCampaign(Method::kTor, 30000, 2.8));
  const auto ss = modelMemory(fakeCampaign(Method::kShadowsocks, 30000, 2.0));
  // Tor Browser idles far above Chrome (the paper's ~70% gap).
  EXPECT_GT(tor.before_mb, vpn.before_mb * 1.5);
  // And grows the most while browsing.
  EXPECT_GT(tor.delta(), vpn.delta());
  EXPECT_GT(tor.delta(), ss.delta());
  // Everyone grows by something.
  EXPECT_GT(vpn.delta(), 10.0);
}

TEST(ResourceModel, CryptoFractionStructure) {
  EXPECT_EQ(clientCryptoFraction(Method::kNativeVpn), 0.0);   // kernel PPTP
  EXPECT_EQ(clientCryptoFraction(Method::kScholarCloud), 0.0);  // no client sw
  EXPECT_EQ(clientCryptoFraction(Method::kOpenVpn), 1.0);
  EXPECT_EQ(clientCryptoFraction(Method::kShadowsocks), 1.0);
  EXPECT_TRUE(hasExtraClientProcess(Method::kOpenVpn));
  EXPECT_TRUE(hasExtraClientProcess(Method::kShadowsocks));
  EXPECT_FALSE(hasExtraClientProcess(Method::kScholarCloud));
}

// ---- Report ----

TEST(Report, KeepsRowsInOrder) {
  Report report("test", {"a", "b"});
  report.addRow({"row1", {1.0, 2.0}});
  report.addRow({"row2", {3.0, 4.0}});
  ASSERT_EQ(report.rows().size(), 2u);
  EXPECT_EQ(report.rows()[0].label, "row1");
  EXPECT_EQ(report.rows()[1].values[1], 4.0);
  report.print();  // exercises the formatter; output checked by eye in CI
}

// ---- campaign plumbing on a real (small) testbed ----

TEST(Campaign, CollectsFirstAndSubsequentSeparately) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 4;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = false;
  const auto result = runAccessCampaign(tb, Method::kNativeVpn, 60, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_EQ(result.successes, 4);
  EXPECT_EQ(result.plt_first_s.n, 1u);
  EXPECT_EQ(result.plt_sub_s.n, 3u);
  EXPECT_GT(result.plt_first_s.mean, result.plt_sub_s.mean);
  EXPECT_GT(result.traffic_kb_per_access, 5.0);
}

TEST(Campaign, RttProbesProduceSamples) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 6;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = true;
  const auto result = runAccessCampaign(tb, Method::kNativeVpn, 61, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_GE(result.rtt_ms.n, 2u);
  // Warm-connection round trip: near the trans-Pacific RTT, not several of.
  EXPECT_GT(result.rtt_ms.mean, 100.0);
  EXPECT_LT(result.rtt_ms.mean, 500.0);
}

TEST(Campaign, ColdCacheMakesEveryAccessFirstVisit) {
  Testbed tb;
  CampaignOptions opts;
  opts.accesses = 3;
  opts.interval = 30 * sim::kSecond;
  opts.measure_rtt = false;
  opts.cold_cache = true;
  const auto result = runAccessCampaign(tb, Method::kOpenVpn, 62, opts);
  ASSERT_TRUE(result.setup_ok);
  EXPECT_EQ(result.plt_first_s.n, 3u);
  EXPECT_EQ(result.plt_sub_s.n, 0u);
}

// Same-seed goldens for each paper method's access path (plus serverless):
// one reduced campaign on its own traced testbed, hashed over every
// CampaignResult field, the metrics and trace and the border wire. They pin
// what fig5 and fig7 run through the Browser and each method's stack.
void addSummary(Fnv1a& h, const Summary& s) {
  h.add(static_cast<std::uint64_t>(s.n));
  for (double v : {s.mean, s.min, s.max, s.stddev, s.p50, s.p90, s.p95, s.p99})
    h.add(v);
}

std::uint64_t campaignDigest(Method method) {
  TestbedOptions topts;
  topts.seed = 23;
  topts.tracing = true;
  BorderWireTap tap;  // outlives the testbed whose link points at it
  Testbed tb(topts);
  tb.world().borderLink().addFilter(&tap);
  CampaignOptions opts;
  opts.accesses = 3;
  const CampaignResult r = runAccessCampaign(tb, method, 70, opts);
  EXPECT_TRUE(r.setup_ok);
  EXPECT_EQ(r.successes, 3);
  std::string metrics, trace;
  captureJsonl(tb.hub(), metrics, &trace);
  EXPECT_FALSE(trace.empty());
  Fnv1a summaries;
  for (const Summary* s : {&r.plt_first_s, &r.plt_sub_s, &r.rtt_ms})
    addSummary(summaries, *s);
  return test::cellDigest(metrics, trace, static_cast<int>(r.method),
                          r.setup_ok, r.successes, r.failures,
                          summaries.value(), r.plr_pct,
                          r.traffic_kb_per_access, r.client_bytes,
                          r.connections_estimate, tap.wire.value());
}

TEST(Campaign, NativeVpnGolden) {
  EXPECT_EQ(campaignDigest(Method::kNativeVpn), 0x8ae16fa210e4cc3eULL);
}

TEST(Campaign, OpenVpnGolden) {
  EXPECT_EQ(campaignDigest(Method::kOpenVpn), 0x9d07d3dc4552d3c8ULL);
}

TEST(Campaign, TorGolden) {
  EXPECT_EQ(campaignDigest(Method::kTor), 0xfb7eb692196d9e4aULL);
}

TEST(Campaign, ShadowsocksGolden) {
  EXPECT_EQ(campaignDigest(Method::kShadowsocks), 0x91e298b37aee5b9fULL);
}

TEST(Campaign, ScholarCloudGolden) {
  EXPECT_EQ(campaignDigest(Method::kScholarCloud), 0x7645ed1a9abb7ff7ULL);
}

TEST(Campaign, ServerlessGolden) {
  EXPECT_EQ(campaignDigest(Method::kServerless), 0x8b175d1baf08f1ecULL);
}

// A campaign leaves nothing running behind it. A Tor campaign that left its
// last RTT probe pending (it is due half an interval after the last access
// starts) would have it fire inside the next campaign: it re-bootstraps the
// finished Tor client and writes its RTT into a Samples that has gone out
// of scope, which, depending on stack layout, is the Shadowsocks campaign's
// own (15 probes, a 265.7 ms maximum).
TEST(Campaign, NoProbeOutlivesItsCampaign) {
  TestbedOptions topts;
  topts.seed = 5;
  CampaignOptions opts;
  opts.accesses = 30;
  opts.measure_rtt = true;

  // What an idle testbed keeps pending: the GFW's flow sweep.
  Testbed idle(topts);
  idle.sim().runUntil(10 * sim::kMinute);
  const std::size_t idle_pending = idle.sim().pendingEvents();

  Testbed alone_tb(topts);
  const CampaignResult alone =
      runAccessCampaign(alone_tb, Method::kShadowsocks, 101, opts);
  ASSERT_TRUE(alone.setup_ok);
  EXPECT_EQ(alone.rtt_ms.n, 14u);

  Testbed tb(topts);
  const CampaignResult tor = runAccessCampaign(tb, Method::kTor, 100, opts);
  ASSERT_TRUE(tor.setup_ok);
  EXPECT_EQ(tb.sim().pendingEvents(), idle_pending);
  const CampaignResult ss =
      runAccessCampaign(tb, Method::kShadowsocks, 101, opts);
  ASSERT_TRUE(ss.setup_ok);
  EXPECT_EQ(tb.sim().pendingEvents(), idle_pending);
  EXPECT_EQ(ss.rtt_ms.n, alone.rtt_ms.n);
  EXPECT_LT(ss.rtt_ms.max, 200.0);
}

TEST(Scalability, MorePointsMoreLoad) {
  ScalabilityOptions opts;
  opts.client_counts = {2, 12};
  opts.accesses_per_client = 3;
  const auto points = runScalability(Method::kShadowsocks, opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].clients, 2);
  EXPECT_EQ(points[1].clients, 12);
  EXPECT_GT(points[0].plt_mean_s, 0.0);
  EXPECT_EQ(points[0].failures, 0);
}

// Same-seed goldens for Fig. 7's two cells: a few fresh-session clients,
// one access each, hashed over the point, the cell's metrics and trace and
// its border wire hash. They pin the cells' packet and byte counts, drops,
// retransmissions and timing, and, through the wire hash, every border
// segment's seq, ack, flags and payload.
std::uint64_t scalabilityCellDigest(Method method) {
  ScalabilityOptions opts;
  opts.accesses_per_client = 1;
  opts.seed = 17;
  ScalabilityExports exports;
  const auto p = runScalabilityPoint(method, 4, opts, &exports);
  EXPECT_EQ(p.clients, 4);
  EXPECT_EQ(p.failures, 0);
  EXPECT_FALSE(exports.trace_jsonl.empty());
  return test::cellDigest(exports.metrics_jsonl, exports.trace_jsonl,
                          p.clients, p.plt_mean_s, p.plt_p95_s, p.failures,
                          exports.border_wire_hash);
}

TEST(Scalability, ShadowsocksCellGolden) {
  EXPECT_EQ(scalabilityCellDigest(Method::kShadowsocks), 0x3f2731b091613a18ULL);
}

TEST(Scalability, ScholarCloudCellGolden) {
  EXPECT_EQ(scalabilityCellDigest(Method::kScholarCloud),
            0x873d82bc31e416f6ULL);
}

// Tracing the cell observes it without changing what it measures.
TEST(Scalability, ExportsLeaveThePointUnchanged) {
  ScalabilityOptions opts;
  opts.accesses_per_client = 1;
  opts.seed = 17;
  ScalabilityExports exports;
  const auto traced =
      runScalabilityPoint(Method::kShadowsocks, 4, opts, &exports);
  const auto plain = runScalabilityPoint(Method::kShadowsocks, 4, opts);
  EXPECT_EQ(traced.plt_mean_s, plain.plt_mean_s);
  EXPECT_EQ(traced.plt_p95_s, plain.plt_p95_s);
  EXPECT_EQ(traced.failures, plain.failures);
}

}  // namespace
}  // namespace sc::measure
