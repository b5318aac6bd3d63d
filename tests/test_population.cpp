#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet_api.h"
#include "gfw/gfw.h"
#include "helpers.h"
#include "measure/calibration.h"
#include "measure/population_scenario.h"
#include "measure/parallel.h"
#include "net/topology.h"
#include "population/flow_model.h"
#include "population/population.h"
#include "population/scheduler.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace sc {
namespace {

using population::FlowModel;
using population::Method;
using population::PopulationModel;
using population::PopulationOptions;

// ---- flow model ---------------------------------------------------------

TEST(Population, FlowModelBaseRttMatchesWorldParameters) {
  const net::WorldParams world = measure::calibratedWorld();
  FlowModel flow(world, nullptr, measure::calibratedGfw());
  const double one_way_ms =
      static_cast<double>(world.access_delay + world.campus_cernet_delay +
                          world.cernet_border_delay +
                          world.transpacific_delay + world.us_server_delay) /
      1e3;
  const double jitter_ms =
      static_cast<double>(world.jitter_transpacific) / 1e3;
  EXPECT_NEAR(flow.baseRttMs(), 2.0 * one_way_ms + jitter_ms, 1e-9);
  EXPECT_LT(flow.domesticRttMs(), 5.0);
}

TEST(Population, FlowModelExpectedIsDeterministicAndOrdered) {
  FlowModel flow(measure::calibratedWorld(), nullptr,
                 measure::calibratedGfw());
  const auto a = flow.expected(Method::kScholarCloud, false);
  const auto b = flow.expected(Method::kScholarCloud, false);
  EXPECT_EQ(a.plt_s, b.plt_s);
  EXPECT_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.plr_pct, b.plr_pct);

  // The paper's ordering: ScholarCloud beats every bypass method; Tor is
  // the slowest; first visits cost more than subsequent ones.
  const double sc = flow.expected(Method::kScholarCloud, false).plt_s;
  for (const Method m : {Method::kNativeVpn, Method::kOpenVpn, Method::kTor,
                         Method::kShadowsocks}) {
    EXPECT_LT(sc, flow.expected(m, false).plt_s) << population::methodName(m);
    EXPECT_LT(flow.expected(m, false).plt_s, flow.expected(m, true).plt_s);
  }
  EXPECT_GT(flow.expected(Method::kTor, false).plt_s,
            flow.expected(Method::kShadowsocks, false).plt_s);
}

TEST(Population, FlowModelBlocksDirectUnderCalibratedGfw) {
  FlowModel censored(measure::calibratedWorld(), nullptr,
                     measure::calibratedGfw());
  EXPECT_TRUE(censored.directBlocked());
  EXPECT_FALSE(censored.expected(Method::kDirect, false).ok);

  gfw::GfwConfig off;
  off.dns_poisoning = false;
  off.keyword_filtering = false;
  off.tls_sni_filtering = false;
  off.ip_blocking = false;
  FlowModel open(measure::calibratedWorld(), nullptr, off);
  EXPECT_FALSE(open.directBlocked());
  EXPECT_TRUE(open.expected(Method::kDirect, false).ok);
}

TEST(Population, BlockedSampleAdvancesTheRngLikeAnOkSample) {
  FlowModel flow(measure::calibratedWorld(), nullptr,
                 measure::calibratedGfw());
  ASSERT_FALSE(flow.expected(Method::kDirect, false).ok);
  ASSERT_TRUE(flow.expected(Method::kScholarCloud, false).ok);
  for (const std::uint64_t seed : {1ULL, 77ULL, 0xdeadbeefULL}) {
    sim::Rng blocked(seed), ok(seed);
    flow.sample(Method::kDirect, false, {}, blocked);
    flow.sample(Method::kScholarCloud, false, {}, ok);
    // Both streams continue in step.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(blocked.nextU64(), ok.nextU64());
  }
}

TEST(Population, FlowModelCacheHitStaysDomestic) {
  FlowModel flow(measure::calibratedWorld(), nullptr,
                 measure::calibratedGfw());
  population::LoadState hit;
  hit.cache_hit = true;
  const auto cached = flow.expected(Method::kScholarCloud, false, hit);
  const auto missed = flow.expected(Method::kScholarCloud, false);
  EXPECT_TRUE(cached.ok);
  EXPECT_FALSE(cached.crossed_border);
  EXPECT_TRUE(missed.crossed_border);
  EXPECT_LT(cached.rtt_ms, 5.0);
  EXPECT_LT(cached.plt_s * 10, missed.plt_s);
  EXPECT_EQ(cached.plr_pct, 0.0);
}

TEST(Population, FlowModelFollowsLiveGfwPolicy) {
  sim::Simulator sim(1);
  net::Network network(sim);
  gfw::Gfw gfw(network, measure::calibratedGfw());
  FlowModel flow(measure::calibratedWorld(), &gfw);

  const double tor_before = flow.disciplineOf(Method::kTor);
  EXPECT_GT(tor_before, 0.0);
  const auto version_before = flow.policyVersionSeen();

  // Switch off protocol fingerprinting: the Tor discipline must fall to
  // the entropy-classifier tier after the lazy recompute notices the
  // version bump.
  gfw.mutatePolicy([](gfw::GfwConfig& c) {
    c.protocol_fingerprinting = false;
  });
  const double tor_after = flow.disciplineOf(Method::kTor);
  EXPECT_NE(flow.policyVersionSeen(), version_before);
  EXPECT_LT(tor_after, tor_before);
}

TEST(Population, FlowModelLoadInflatesLatency) {
  FlowModel flow(measure::calibratedWorld(), nullptr,
                 measure::calibratedGfw());
  population::LoadState idle, busy;
  busy.utilization = 2.0;
  EXPECT_GT(flow.expected(Method::kScholarCloud, false, busy).plt_s,
            flow.expected(Method::kScholarCloud, false, idle).plt_s);
}

// ---- population model ---------------------------------------------------

TEST(Population, DiurnalCurvesAreNormalizedAndDeterministic) {
  PopulationOptions opts;
  opts.scholars = 10000;
  PopulationModel model(opts);
  ASSERT_EQ(model.classes().size(), 3u);

  for (std::size_t i = 0; i < model.classes().size(); ++i) {
    // Mean of the (piecewise-linear) curve over a day is 1, so the daily
    // budget integrates to accesses_per_day exactly.
    double sum = 0;
    for (int h = 0; h < 24; ++h) sum += model.diurnal(i, h * sim::kHour);
    EXPECT_NEAR(sum / 24.0, 1.0, 1e-9) << model.classes()[i].name;
    // Period is one day.
    EXPECT_EQ(model.diurnal(i, 3 * sim::kHour),
              model.diurnal(i, sim::kDay + 3 * sim::kHour));
  }

  // Two models with the same options agree everywhere.
  PopulationModel twin(opts);
  for (std::uint64_t id : {0ull, 137ull, 9999ull}) {
    EXPECT_EQ(model.methodOf(id), twin.methodOf(id));
    EXPECT_EQ(model.classOf(id), twin.classOf(id));
  }
}

TEST(Population, ClassPartitionCoversEveryScholarOnce) {
  PopulationOptions opts;
  opts.scholars = 12345;
  PopulationModel model(opts);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < model.classes().size(); ++i) {
    covered += model.classSize(i);
    if (i > 0) {
      EXPECT_EQ(model.classBegin(i), model.classEnd(i - 1));
    }
  }
  EXPECT_EQ(covered, opts.scholars);
  EXPECT_EQ(model.classOf(0), 0u);
  EXPECT_EQ(model.classOf(opts.scholars - 1), model.classes().size() - 1);
}

TEST(Population, MethodMixFollowsSurveyDistribution) {
  PopulationOptions opts;
  opts.scholars = 200000;
  opts.sc_adoption = 0.0;
  PopulationModel model(opts);
  std::array<std::uint64_t, population::kMethodCount> counts{};
  for (std::uint64_t id = 0; id < opts.scholars; ++id)
    ++counts[static_cast<std::size_t>(model.methodOf(id))];
  const double n = static_cast<double>(opts.scholars);
  // Direct (blocked) carries the non-bypassing 74%.
  EXPECT_NEAR(counts[static_cast<std::size_t>(Method::kDirect)] / n, 0.74,
              0.01);
  // VPN split of the bypassing 26%.
  EXPECT_NEAR(counts[static_cast<std::size_t>(Method::kNativeVpn)] / n,
              0.26 * 0.43 * 0.93, 0.005);
  EXPECT_NEAR(counts[static_cast<std::size_t>(Method::kShadowsocks)] / n,
              0.26 * 0.21, 0.005);
  // With adoption, some Direct users convert to ScholarCloud.
  opts.sc_adoption = 0.5;
  PopulationModel adopted(opts);
  std::uint64_t direct = 0, sc = 0;
  for (std::uint64_t id = 0; id < opts.scholars; ++id) {
    const Method m = adopted.methodOf(id);
    if (m == Method::kDirect) ++direct;
    if (m == Method::kScholarCloud) ++sc;
  }
  EXPECT_NEAR(direct / n, 0.74 * 0.5, 0.01);
  EXPECT_GT(sc, counts[static_cast<std::size_t>(Method::kScholarCloud)]);
}

TEST(Population, ZipfQueryCatalogIsHeadHeavy) {
  PopulationOptions opts;
  opts.scholars = 100;
  PopulationModel model(opts);
  sim::Rng rng(3);
  std::array<int, 8> head{};
  int total = 0;
  for (int i = 0; i < 20000; ++i) {
    const int rank = model.sampleQueryRank(rng);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, opts.query_catalog);
    if (rank < static_cast<int>(head.size())) ++head[rank], ++total;
  }
  EXPECT_GT(head[0], head[1]);
  EXPECT_GT(head[1], head[3]);
  // Top 8 of 512 ranks carry ~48% of the mass at s=1.1.
  EXPECT_GT(total, 8000);
  EXPECT_EQ(PopulationModel::queryCacheKey(0), "scholar.google.com/");
}

// The rank std::upper_bound gives over a Zipf CDF built the way the model
// builds it; the guide-table sampler must agree with it for every u.
struct ZipfReference {
  std::vector<double> cdf;

  ZipfReference(int catalog, double s) {
    double total = 0;
    for (int r = 0; r < catalog; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf.push_back(total);
    }
    for (auto& edge : cdf) edge /= total;
    cdf.back() = 1.0;
  }
  int rankOf(double u) const {
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return static_cast<int>(it == cdf.end() ? cdf.size() - 1
                                            : it - cdf.begin());
  }
};

TEST(Population, ZipfGuideTableMatchesUpperBound) {
  for (const auto& [catalog, s] :
       std::vector<std::pair<int, double>>{{512, 1.1}, {1, 1.1}, {2, 1.1},
                                           {513, 1.1}, {512, 0.7},
                                           {2000, 1.6}}) {
    SCOPED_TRACE(std::to_string(catalog) + " ranks, s=" + std::to_string(s));
    PopulationOptions opts;
    opts.scholars = 100;
    opts.query_catalog = catalog;
    opts.zipf_s = s;
    const PopulationModel model(opts);
    const ZipfReference ref(catalog, s);

    // Probe every guide edge k/K and every CDF edge, with one ulp either
    // side: the points where a bucket start or a rank boundary could be off.
    std::vector<double> probes;
    const auto k_max = PopulationModel::kZipfGuide;
    for (std::size_t k = 0; k < k_max; ++k)
      probes.push_back(static_cast<double>(k) / static_cast<double>(k_max));
    probes.insert(probes.end(), ref.cdf.begin(), ref.cdf.end());
    for (const double p : std::vector<double>(probes)) {
      probes.push_back(std::nextafter(p, 0.0));
      probes.push_back(std::nextafter(p, 1.0));
    }
    for (const double u : probes) {
      if (!(u >= 0.0 && u < 1.0)) continue;
      ASSERT_EQ(model.queryRankOf(u), ref.rankOf(u)) << "u=" << u;
    }

    // Seeded draws: sampleQueryRank consumes one uniform draw per call.
    sim::Rng rng(0x21bf), twin(0x21bf);
    for (int i = 0; i < 200000; ++i)
      ASSERT_EQ(model.sampleQueryRank(rng), ref.rankOf(twin.uniformDouble()))
          << "draw " << i;
  }
}

// ---- hybrid scheduler / cells ------------------------------------------

// The scheduler memoises each rank's cache key; the text must be the one
// PopulationModel::queryCacheKey builds (perfbench's replay and the
// packet-level proxy both use that text) and the hash its FNV-1a.
TEST(Population, SchedulerQueryKeysMatchQueryCacheKey) {
  sim::Simulator sim(3);
  PopulationOptions opts;
  opts.scholars = 100;
  population::HybridScheduler sched(
      sim, PopulationModel(opts),
      FlowModel(measure::calibratedWorld(), nullptr, measure::calibratedGfw()),
      nullptr, population::SchedulerOptions{});
  ASSERT_EQ(sched.population().queryCatalog(), 512u);
  for (int pass = 0; pass < 2; ++pass) {  // first use fills, second reads
    for (int rank = 0; rank < 512; ++rank) {
      const std::string text = PopulationModel::queryCacheKey(rank);
      const core::CacheKey key = sched.queryKey(rank);
      ASSERT_EQ(key.text, text) << "rank " << rank;
      ASSERT_EQ(key.hash, fnv1a(text)) << "rank " << rank;
    }
  }
}

measure::PopulationCellOptions smallCell() {
  measure::PopulationCellOptions opt;
  opt.seed = 11;
  opt.scholars = 20000;
  opt.sc_adoption = 0.3;
  opt.cohort_users = 2;
  opt.duration = 20 * sim::kSecond;
  opt.scheduler.day_phase = 20 * sim::kHour;
  opt.scheduler.time_scale = 60.0;
  return opt;
}

TEST(Population, HybridCellCouplesBackgroundIntoFleet) {
  auto opt = smallCell();
  opt.tracing = true;
  const auto r = measure::runPopulationCell(opt);
  EXPECT_GT(r.background_stats.arrivals, 0u);
  EXPECT_GT(r.background_stats.fleet_leases, 0u);
  EXPECT_GT(r.cohort_successes, 0);
  // The background's ScholarCloud traffic hits the shared cache.
  const auto& sc_stats = r.background_stats
                             .by_method[static_cast<std::size_t>(
                                 Method::kScholarCloud)];
  EXPECT_GT(sc_stats.accesses, 0u);
  EXPECT_GT(sc_stats.cache_hits, 0u);
  // Ticks land in the shared trace ring.
  EXPECT_NE(r.trace_jsonl.find("population_tick"), std::string::npos);
  // Metrics flow into the shared registry.
  EXPECT_NE(r.metrics_jsonl.find("sc.population.accesses"),
            std::string::npos);
}

TEST(Population, BackgroundLoadIsVisibleToTheCohortWorld) {
  auto with = smallCell();
  auto without = smallCell();
  without.background = false;
  const auto r_with = measure::runPopulationCell(with);
  const auto r_without = measure::runPopulationCell(without);
  // Shared cache sees background traffic; the pool carries background
  // leases on top of the cohort's streams.
  EXPECT_GT(r_with.cache_hits, r_without.cache_hits);
  EXPECT_GT(r_with.peak_active_streams, r_without.peak_active_streams);
}

std::uint64_t digestOf(const measure::PopulationCellResult& r) {
  return test::cellDigest(r.metrics_jsonl, r.trace_jsonl,
                          r.background_digest, r.cohort_attempts,
                          r.cohort_successes, r.cohort_plt_mean_s,
                          r.cohort_plt_max_s, r.cache_hits, r.cache_misses,
                          r.final_fleet_size, r.peak_active_streams);
}

TEST(Population, SameSeedCellsAreByteIdenticalAcrossThreadCounts) {
  std::vector<measure::PopulationCellOptions> cells;
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    auto opt = smallCell();
    opt.seed = seed;
    cells.push_back(opt);
  }
  const auto serial = measure::runCells(cells, 1, measure::runPopulationCell);
  const auto parallel =
      measure::runCells(cells, 4, measure::runPopulationCell);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].background_digest, parallel[i].background_digest);
    EXPECT_EQ(serial[i].cohort_attempts, parallel[i].cohort_attempts);
    EXPECT_EQ(serial[i].cohort_successes, parallel[i].cohort_successes);
    EXPECT_EQ(serial[i].metrics_jsonl, parallel[i].metrics_jsonl);
  }
  // And re-running the same cell reproduces the same digest.
  const auto again = measure::runPopulationCell(cells[0]);
  EXPECT_EQ(again.background_digest, serial[0].background_digest);
  // Goldens: the hybrid world (cohort + background) keeps its traffic
  // across commits.
  const std::uint64_t golden[] = {0xf848cbcb149c7269ULL, 0xf20cad06cac01ef7ULL,
                                  0x4136029ef4c93602ULL};
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(digestOf(serial[i]), golden[i])
        << i << ": " << std::hex << digestOf(serial[i]);
}

TEST(Population, FlowPredictionMatchesPacketCellForScholarCloud) {
  measure::ValidationCellOptions opt;
  opt.method = Method::kScholarCloud;
  opt.accesses = 8;
  const auto v = measure::runValidationCell(opt);
  EXPECT_TRUE(v.pass) << "plt_sub rel err " << v.plt_sub_rel_err
                      << ", rtt rel err " << v.rtt_rel_err
                      << ", plr abs err " << v.plr_abs_err_pp << "pp";
  EXPECT_GT(v.packet_plt_sub_s, 0.0);
  EXPECT_GT(v.flow_plt_sub_s, 0.0);
}

TEST(Population, FlowPredictionMatchesPacketCellForNativeVpn) {
  measure::ValidationCellOptions opt;
  opt.method = Method::kNativeVpn;
  opt.accesses = 8;
  const auto v = measure::runValidationCell(opt);
  EXPECT_TRUE(v.pass) << "plt_sub rel err " << v.plt_sub_rel_err
                      << ", rtt rel err " << v.rtt_rel_err
                      << ", plr abs err " << v.plr_abs_err_pp << "pp";
}

}  // namespace
}  // namespace sc
