#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>

#include "measure/campaign.h"
#include "measure/fleet_scenario.h"
#include "measure/population_scenario.h"
#include "measure/stats.h"
#include "measure/testbed.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "util/hash.h"

// Link-time seams on sc::sim::Simulator::runUntil and ::runWhile (the build
// passes -Wl,--wrap for both symbols).
//
// The fleet and population cells own their Simulator and run it with one
// runUntil call; reading its counters as that call returns is the only way
// to see them without changing the cell.
//
// While a UnitTimer is alive, every run loop is cut into slices of
// simulated time and the wall time of each slice, and of each stretch
// between loops, is recorded. Running a loop slice by slice is the same
// simulation: runUntil(a) then runUntil(b) fires the same events in the
// same order as runUntil(b), and a runWhile predicate that was false when
// one slice ended is still false when the next begins, since no event ran
// in between. With neither armed the wrappers only forward.
namespace {

using Clock = std::chrono::steady_clock;

struct LoopCounters {
  bool armed = false;
  bool seen = false;
  std::uint64_t events = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t compactions = 0;
  double wall_s = 0;
};
LoopCounters g_loop;

struct Units {
  bool armed = false;
  sc::sim::Time slice = 0;
  Clock::time_point last;
  std::vector<double> seconds;

  void mark() {
    const auto now = Clock::now();
    seconds.push_back(std::chrono::duration<double>(now - last).count());
    last = now;
  }
};
Units g_units;

void readLoopCounters(const sc::sim::Simulator* self) {
  if (!g_loop.armed) return;
  g_loop.seen = true;
  g_loop.events = self->eventsExecuted();
  g_loop.max_queue_depth = self->maxQueueDepth();
  g_loop.compactions = self->compactions();
  g_loop.wall_s = self->wallSeconds();
}

}  // namespace

extern "C" std::size_t __real__ZN2sc3sim9Simulator8runUntilEl(
    sc::sim::Simulator* self, sc::sim::Time deadline);
extern "C" bool __real__ZN2sc3sim9Simulator8runWhileERKSt8functionIFbvEEl(
    sc::sim::Simulator* self, const std::function<bool()>& done,
    sc::sim::Time deadline);

extern "C" std::size_t __wrap__ZN2sc3sim9Simulator8runUntilEl(
    sc::sim::Simulator* self, sc::sim::Time deadline) {
  std::size_t ran = 0;
  if (!g_units.armed) {
    ran = __real__ZN2sc3sim9Simulator8runUntilEl(self, deadline);
  } else {
    g_units.mark();
    sc::sim::Time t = self->now();
    do {
      t = std::min(deadline, t + g_units.slice);
      ran += __real__ZN2sc3sim9Simulator8runUntilEl(self, t);
      g_units.mark();
    } while (t < deadline);
  }
  readLoopCounters(self);
  return ran;
}

extern "C" bool __wrap__ZN2sc3sim9Simulator8runWhileERKSt8functionIFbvEEl(
    sc::sim::Simulator* self, const std::function<bool()>& done,
    sc::sim::Time deadline) {
  if (!g_units.armed)
    return __real__ZN2sc3sim9Simulator8runWhileERKSt8functionIFbvEEl(
        self, done, deadline);
  g_units.mark();
  for (sc::sim::Time t = self->now();;) {
    t = std::min(deadline, t + g_units.slice);
    const bool hit =
        __real__ZN2sc3sim9Simulator8runWhileERKSt8functionIFbvEEl(self, done,
                                                                  t);
    g_units.mark();
    // The whole call would have stopped here too: done fired, the deadline
    // passed, or the queue drained.
    if (hit || t >= deadline || self->pendingEvents() == 0) return hit;
  }
}

namespace perfbench {

namespace sim = sc::sim;
namespace measure = sc::measure;

Sizes fullSizes() { return Sizes{}; }

Sizes smokeSizes() {
  Sizes s;
  s.fig5_accesses_per_method = 2;
  s.fig7_clients = 6;
  s.fig7_accesses_per_client = 1;
  s.population_scholars = 20'000;
  s.population_day_s = 10;
  s.fleet_users = 3;
  s.fleet_duration_s = 40;
  return s;
}

UnitTimer::UnitTimer(std::int64_t slice_us) {
  g_units = Units{};
  g_units.armed = true;
  g_units.slice = slice_us;
  g_units.last = Clock::now();
}

UnitTimer::~UnitTimer() { g_units.armed = false; }

std::vector<double> UnitTimer::take() {
  g_units.mark();
  g_units.armed = false;
  return std::move(g_units.seconds);
}

namespace {

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps one border packet in this many (and at most kCaptureMax), so the
// replay corpus follows the whole run's size mix at bounded memory.
constexpr std::uint64_t kCaptureStride = 4;
constexpr std::size_t kCaptureMax = 8192;

// Pass-through filter on the border link: copies, never drops or edits.
class BorderTap final : public sc::net::PacketFilter {
 public:
  explicit BorderTap(Observation* obs) : obs_(obs) {}

  Verdict onPacket(sc::net::Packet& pkt, sc::net::Direction,
                   sc::net::Link&) override {
    if (obs_->border_packets % kCaptureStride == 0 &&
        obs_->captured.size() < kCaptureMax)
      obs_->captured.push_back(pkt);
    ++obs_->border_packets;
    obs_->border_payload_bytes += pkt.payload.size();
    return Verdict::kPass;
  }

 private:
  Observation* obs_;
};

void addSummary(sc::Fnv1a& h, const measure::Summary& s) {
  h.add(static_cast<std::uint64_t>(s.n));
  for (const double v :
       {s.mean, s.min, s.max, s.stddev, s.p50, s.p90, s.p95, s.p99})
    h.add(v);
}

std::string metricsJsonl(const sc::obs::Registry& registry) {
  std::ostringstream out;
  sc::obs::writeMetricsJsonl(registry, out);
  return std::move(out).str();
}

void absorbRows(Observation& obs, const std::vector<sc::obs::MetricRow>& rows) {
  for (const auto& row : rows)
    obs.metrics[row.name] +=
        row.kind == "gauge" ? row.value : static_cast<double>(row.count);
}

void absorbJsonl(Observation& obs, const std::string& jsonl) {
  std::istringstream in(jsonl);
  absorbRows(obs, sc::obs::readMetricsJsonl(in));
}

void absorbSim(Observation& obs, std::uint64_t events, std::uint64_t depth,
               std::uint64_t compactions, double wall_s) {
  obs.sim_events += events;
  obs.sim_max_queue_depth = std::max(obs.sim_max_queue_depth, depth);
  obs.sim_compactions += compactions;
  obs.sim_wall_s += wall_s;
}

void absorbTestbed(Observation& obs, measure::Testbed& tb) {
  sim::Simulator& s = tb.sim();
  absorbSim(obs, s.eventsExecuted(), s.maxQueueDepth(), s.compactions(),
            s.wallSeconds());
  absorbRows(obs, tb.hub().registry().snapshot());
  obs.domain_patterns = tb.gfw().domains().patterns();
}

std::uint64_t blocklistVersion(sc::gfw::Gfw& gfw) {
  return gfw.ips().version() + gfw.domains().version();
}

// Arms the runUntil seam for one cell call and folds what it saw into obs.
class LoopProbe {
 public:
  explicit LoopProbe(Observation* obs) : obs_(obs) {
    g_loop = LoopCounters{};
    g_loop.armed = obs != nullptr;
  }
  ~LoopProbe() { g_loop.armed = false; }
  LoopProbe(const LoopProbe&) = delete;
  LoopProbe& operator=(const LoopProbe&) = delete;

  void collect() const {
    if (obs_ == nullptr || !g_loop.seen) return;
    absorbSim(*obs_, g_loop.events, g_loop.max_queue_depth,
              g_loop.compactions, g_loop.wall_s);
  }

 private:
  Observation* obs_;
};

// The cells' border traffic is only visible through the link's byte
// counters (wire bytes, headers included).
void absorbCellBorder(Observation& obs) {
  obs.border_payload_bytes += static_cast<std::uint64_t>(
      obs.metric("net.link.transpacific.bytes_ab") +
      obs.metric("net.link.transpacific.bytes_ba"));
}

// ---- fig5_campaign -------------------------------------------------------

struct NamedMethod {
  measure::Method method;
  const char* name;
};

constexpr NamedMethod kFig5Methods[] = {
    {measure::Method::kNativeVpn, "native_vpn"},
    {measure::Method::kOpenVpn, "openvpn"},
    {measure::Method::kTor, "tor"},
    {measure::Method::kShadowsocks, "shadowsocks"},
    {measure::Method::kScholarCloud, "scholarcloud"},
    {measure::Method::kServerless, "serverless"},
};

RunResult runFig5(const Sizes& sizes, std::uint64_t seed, bool setup_only,
                  Observation* obs) {
  RunResult r;
  sc::Fnv1a h;
  // Declared before the testbed: the link keeps a pointer to the tap until
  // the world is gone.
  BorderTap tap(obs);
  measure::TestbedOptions topts;
  topts.seed = seed;
  measure::Testbed tb(topts);
  if (obs != nullptr) tb.world().borderLink().addFilter(&tap);
  const std::uint64_t writes_before = blocklistVersion(tb.gfw());

  std::uint32_t tag = 100;
  for (const NamedMethod& m : kFig5Methods) {
    measure::CampaignOptions copts;
    copts.accesses = setup_only ? 0 : sizes.fig5_accesses_per_method;
    const auto start = Clock::now();
    const measure::CampaignResult c =
        measure::runAccessCampaign(tb, m.method, tag++, copts);
    const double wall_s = secondsSince(start);
    const auto attempted =
        static_cast<std::uint64_t>(c.successes + c.failures);
    r.requested += static_cast<std::uint64_t>(copts.accesses);
    r.attempted += attempted;
    r.succeeded += static_cast<std::uint64_t>(c.successes);
    r.setup_ok = r.setup_ok && c.setup_ok;
    r.parts.push_back(Part{m.name, attempted, wall_s});

    h.add(static_cast<std::uint64_t>(c.method));
    h.add(static_cast<std::uint64_t>(c.setup_ok));
    h.add(static_cast<std::uint64_t>(c.successes));
    h.add(static_cast<std::uint64_t>(c.failures));
    addSummary(h, c.plt_first_s);
    addSummary(h, c.plt_sub_s);
    addSummary(h, c.rtt_ms);
    h.add(c.plr_pct);
    h.add(c.traffic_kb_per_access);
    h.add(c.client_bytes);
    h.add(static_cast<std::uint64_t>(c.connections_estimate));
  }
  h.add(metricsJsonl(tb.hub().registry()));
  r.digest = h.value();

  if (obs != nullptr) {
    absorbTestbed(*obs, tb);
    obs->blocklist_writes += blocklistVersion(tb.gfw()) - writes_before;
  }
  return r;
}

// ---- fig7_crowd ----------------------------------------------------------

constexpr NamedMethod kFig7Cells[] = {
    {measure::Method::kShadowsocks, "shadowsocks"},
    {measure::Method::kScholarCloud, "scholarcloud"},
};

struct CrowdCell {
  measure::ScalabilityPoint point;
  std::uint64_t attempted = 0;
  bool setup_ok = true;
};

// runScalabilityPoint's cell, step for step, on a testbed the benchmark
// owns so the traced run can tap the border and read the registry. The
// traced digest must equal the library call's, which keeps the two in step.
CrowdCell tracedCrowdCell(measure::Method method, int n_clients,
                          const measure::ScalabilityOptions& options,
                          Observation& obs) {
  BorderTap tap(&obs);
  measure::TestbedOptions topts;
  topts.seed = options.seed + static_cast<std::uint64_t>(n_clients);
  measure::Testbed tb(topts);
  tb.world().borderLink().addFilter(&tap);
  auto& s = tb.sim();

  struct ClientState {
    measure::Testbed::Client* client = nullptr;
    bool ready = false;
    bool ok = false;
  };
  std::vector<ClientState> states(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    auto& st = states[static_cast<std::size_t>(i)];
    st.client = &tb.addClient(method, 1000u + static_cast<std::uint32_t>(i),
                              [&st](bool ok) {
                                st.ready = true;
                                st.ok = ok;
                              });
  }
  s.runWhile(
      [&] {
        for (const auto& st : states)
          if (!st.ready) return false;
        return true;
      },
      s.now() + 5 * sim::kMinute);

  CrowdCell out;
  measure::Samples plt;
  int failures = 0;
  int completed = 0;
  const int total_expected = n_clients * options.accesses_per_client;
  const sim::Time t0 = s.now() + sim::kSecond;
  for (int i = 0; i < n_clients; ++i) {
    auto& st = states[static_cast<std::size_t>(i)];
    if (!st.ok) {
      out.setup_ok = false;
      failures += options.accesses_per_client;
      completed += options.accesses_per_client;
      continue;
    }
    const sim::Time offset = options.think_time * static_cast<sim::Time>(i) /
                             std::max(1, n_clients);
    for (int a = 0; a < options.accesses_per_client; ++a) {
      s.scheduleAt(
          t0 + offset + static_cast<sim::Time>(a) * options.think_time,
          [&, i] {
            auto* browser =
                states[static_cast<std::size_t>(i)].client->browser.get();
            browser->clearCaches();
            browser->loadPage(measure::Testbed::kScholarHost,
                              [&](sc::http::PageLoadResult r) {
                                ++completed;
                                if (!r.ok) {
                                  ++failures;
                                  return;
                                }
                                plt.add(sim::toSeconds(r.plt));
                              });
          });
    }
  }
  const sim::Time deadline =
      t0 +
      static_cast<sim::Time>(options.accesses_per_client + 4) *
          options.think_time +
      3 * sim::kMinute;
  s.runWhile([&] { return completed >= total_expected; }, deadline);

  const measure::Summary sum = plt.summarize();
  out.point = measure::ScalabilityPoint{n_clients, sum.mean, sum.p95, failures};
  out.attempted = static_cast<std::uint64_t>(completed);
  absorbTestbed(obs, tb);
  return out;
}

RunResult runFig7(const Sizes& sizes, std::uint64_t seed, bool setup_only,
                  Observation* obs) {
  RunResult r;
  sc::Fnv1a h;
  measure::ScalabilityOptions opts;
  opts.accesses_per_client = setup_only ? 0 : sizes.fig7_accesses_per_client;
  opts.seed = seed;
  const int n = sizes.fig7_clients;
  const auto requested =
      static_cast<std::uint64_t>(n * opts.accesses_per_client);
  for (const NamedMethod& cell : kFig7Cells) {
    const auto start = Clock::now();
    CrowdCell c;
    if (obs != nullptr) {
      c = tracedCrowdCell(cell.method, n, opts, *obs);
    } else {
      // The library reports failures only; every requested access ran.
      c.point = measure::runScalabilityPoint(cell.method, n, opts);
      c.attempted = requested;
    }
    const double wall_s = secondsSince(start);
    const auto failures = static_cast<std::uint64_t>(c.point.failures);
    r.requested += requested;
    r.attempted += c.attempted;
    r.succeeded += c.attempted - std::min(c.attempted, failures);
    r.setup_ok = r.setup_ok && c.setup_ok;
    r.parts.push_back(Part{cell.name, c.attempted, wall_s});

    h.add(static_cast<std::uint64_t>(cell.method));
    h.add(static_cast<std::uint64_t>(c.point.clients));
    h.add(c.point.plt_mean_s);
    h.add(c.point.plt_p95_s);
    h.add(static_cast<std::uint64_t>(c.point.failures));
  }
  r.digest = h.value();
  return r;
}

// ---- population_day ------------------------------------------------------

RunResult runPopulation(const Sizes& sizes, std::uint64_t seed,
                        bool setup_only, Observation* obs) {
  measure::PopulationCellOptions opts;
  opts.seed = seed;
  opts.scholars = sizes.population_scholars;
  opts.sc_adoption = 0.25;
  opts.scheduler.day_phase = 0;
  // The whole diurnal day, compressed into the horizon.
  opts.scheduler.time_scale = 86400.0 / sizes.population_day_s;
  opts.duration =
      setup_only ? 0 : static_cast<sim::Time>(sizes.population_day_s) *
                           sim::kSecond;
  opts.cohort_users = 0;

  LoopProbe probe(obs);
  const measure::PopulationCellResult cell = measure::runPopulationCell(opts);
  const auto& bg = cell.background_stats;

  RunResult r;
  r.requested = setup_only ? 0 : 1;
  r.attempted = bg.arrivals;
  r.succeeded = bg.arrivals - bg.blocked;
  sc::Fnv1a h;
  h.add(cell.background_digest);
  h.add(cell.cache_hits);
  h.add(cell.cache_misses);
  h.add(static_cast<std::uint64_t>(cell.final_fleet_size));
  h.add(cell.peak_active_streams);
  h.add(cell.metrics_jsonl);
  r.digest = h.value();

  if (obs != nullptr) {
    probe.collect();
    absorbJsonl(*obs, cell.metrics_jsonl);
    absorbCellBorder(*obs);
    // The cell blocks exactly this domain (and the origin's IP).
    obs->domain_patterns = {"google.com"};
  }
  return r;
}

// ---- fleet_churn ---------------------------------------------------------

RunResult runFleet(const Sizes& sizes, std::uint64_t seed, bool setup_only,
                   Observation* obs) {
  measure::FleetCellOptions opts;
  opts.seed = seed;
  opts.users = sizes.fleet_users;
  opts.cache = false;
  opts.autoscale = true;
  opts.churn_interval = 15 * sim::kSecond;
  opts.duration =
      setup_only ? 0 : static_cast<sim::Time>(sizes.fleet_duration_s) *
                           sim::kSecond;

  LoopProbe probe(obs);
  const measure::FleetCellResult cell = measure::runFleetCell(opts);

  RunResult r;
  // Closed loop: every user issues at least its first access.
  r.requested = setup_only ? 0 : static_cast<std::uint64_t>(opts.users);
  r.attempted = static_cast<std::uint64_t>(cell.attempts);
  r.succeeded = static_cast<std::uint64_t>(cell.successes);
  sc::Fnv1a h;
  h.add(static_cast<std::uint64_t>(cell.attempts));
  h.add(static_cast<std::uint64_t>(cell.successes));
  h.add(cell.success_ratio);
  h.add(cell.cache_hits);
  h.add(cell.cache_misses);
  h.add(cell.border_bytes);
  h.add(cell.respawns);
  h.add(cell.failovers);
  h.add(cell.blocks_applied);
  h.add(static_cast<std::uint64_t>(cell.final_size));
  h.add(cell.metrics_jsonl);
  r.digest = h.value();

  if (obs != nullptr) {
    probe.collect();
    absorbJsonl(*obs, cell.metrics_jsonl);
    absorbCellBorder(*obs);
    obs->domain_patterns = {"google.com"};
    obs->blocklist_writes += cell.blocks_applied;
  }
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"fig5_campaign", runFig5, sim::kSecond},
      {"fig7_crowd", runFig7, 100 * sim::kMillisecond},
      {"population_day", runPopulation, 250 * sim::kMillisecond},
      {"fleet_churn", runFleet, 2 * sim::kSecond},
  };
  return kAll;
}

}  // namespace perfbench
