// perfbench_driver: runs one workload of the simulator benchmark in this
// process, on this one thread, and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// --trace 0 reports the end-to-end metrics: simulated accesses per
// wall-second (repeated runs of the seed, timed slice by slice), set-up
// seconds (median of repeated zero-horizon runs), both scaled to a fixed
// host speed by a reference workload timed alongside (see reference.h),
// peak RSS and the access success ratio.
// --trace 1 alternates untraced and traced runs, replays the captured
// inputs through each layer's public functions, and reports per-layer
// metrics. Every run's outputs are checked; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "reference.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Timings of the replayed calls and of the per-layer runs report the
// fastest of repeated runs: other tenants of a shared host only ever slow a
// run down.
double fastest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0
                         : *std::min_element(seconds.begin(), seconds.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid] + *std::max_element(v.begin(), v.begin() + mid));
}

// The end-to-end run time. Every run of a seed splits into the same units,
// each the same work (see UnitTimer); the time is the sum over units of
// each unit's median over the runs. Other tenants of a shared host slow
// this one in bursts of a few seconds that cover part of a run: the median
// of each unit drops the runs a burst covered, where the median of whole
// runs drops only runs that a burst covered entirely, and the fastest unit
// or run rewards a rare quiet moment. Returns 0 when the runs split
// differently.
double medianOfUnits(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return 0;
  const std::size_t n = runs.front().size();
  double sum = 0;
  std::vector<double> column(runs.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (runs[r].size() != n) return 0;
      column[r] = runs[r][i];
    }
    sum += median(column);
  }
  return sum;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
};

bool parseUnsigned(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool parseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed" && parseUnsigned(value, n)) {
      a.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parseUnsigned(value, n) && n > 0) {
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
      a.trace = n == 1;
      have_trace = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_seed && have_seconds && have_trace;
}

// Named output checks; a name fails if any of its expectations failed.
class Checks {
 public:
  void expect(const std::string& name, bool ok) {
    auto [it, inserted] = results_.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  bool ok() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const auto& kv) { return kv.second; });
  }
  void print() const {
    for (const auto& [name, ok] : results_)
      std::printf("check %s: %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }

 private:
  std::map<std::string, bool> results_;
};

void checkRun(const RunResult& r, Checks& checks) {
  checks.expect("setup_ok", r.setup_ok);
  checks.expect("attempted_ge_requested", r.attempted >= r.requested);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t digest = 0;
};

// Peak resident set of this address space. getrusage's ru_maxrss would also
// carry the high-water mark of the process image exec replaced.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

// Runs the seed repeatedly and checks every run against the first.
class SeedRuns {
 public:
  SeedRuns(const Workload& w, const Sizes& sizes, std::uint64_t seed,
           Checks& checks, Outcome& out)
      : w_(w), sizes_(sizes), seed_(seed), checks_(checks), out_(out) {}

  // With `units`, also records the run's unit times (see UnitTimer).
  RunResult run(Observation* obs, double& wall_s,
                std::vector<double>* units = nullptr) {
    std::optional<UnitTimer> timer;
    if (units != nullptr) timer.emplace(w_.slice_us);
    const auto start = Clock::now();
    RunResult r = w_.run(sizes_, seed_, false, obs);
    wall_s = secondsSince(start);
    if (units != nullptr) *units = timer->take();
    checkRun(r, checks_);
    if (runs_++ == 0)
      out_.digest = r.digest;
    else
      checks_.expect(obs == nullptr ? "digest_repeatable"
                                    : "traced_digest_matches",
                     r.digest == out_.digest);
    out_.attempted += r.attempted;
    out_.succeeded += r.succeeded;
    return r;
  }

 private:
  const Workload& w_;
  const Sizes& sizes_;
  std::uint64_t seed_;
  Checks& checks_;
  Outcome& out_;
  int runs_ = 0;
};

constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kMinSetupRuns = 5;
constexpr std::size_t kSetupRunsPerRun = 25;
constexpr std::size_t kReferencePassesPerRun = 40;

void endToEnd(const Workload& w, const Sizes& sizes, const Args& a,
              Checks& checks, Outcome& out) {
  SeedRuns runs(w, sizes, a.seed, checks, out);
  std::vector<double> walls;
  std::vector<std::vector<double>> units;
  // Per timed run: the set-ups and reference passes that followed it.
  std::vector<std::vector<double>> setup_s;
  std::vector<std::vector<double>> reference_s;
  double timed_total_s = 0;
  double setup_total_s = 0;
  double reference_total_s = 0;
  // Built after the peak-RSS reading, which must not count its buffers.
  std::optional<Reference> reference;
  // Set-up time: the same calls with a zero-length horizon.
  const auto setup = [&] {
    const auto t = Clock::now();
    const RunResult r = w.run(sizes, a.seed, true, nullptr);
    setup_s.back().push_back(secondsSince(t));
    setup_total_s += setup_s.back().back();
    checks.expect("setup_ok", r.setup_ok);
  };
  std::uint64_t accesses = 0;
  double peak_rss_mb = 0;
  double last_s = 0;
  double round_s = 0;  // the last timed run with its set-ups and passes
  const auto start = Clock::now();
  while (walls.size() < kMinRuns || secondsSince(start) + round_s <= a.seconds) {
    const auto round_start = Clock::now();
    // The first run is not sliced, so digest_repeatable also checks that
    // slicing the run loops leaves the simulation unchanged.
    std::vector<double>* slice_units =
        walls.empty() ? nullptr : &units.emplace_back();
    accesses = runs.run(nullptr, last_s, slice_units).attempted;
    walls.push_back(last_s);
    timed_total_s += last_s;
    // Taken after one run of each seed: the heap keeps growing over
    // repeated worlds, so a later reading would depend on the run count.
    if (walls.size() == 1) {
      peak_rss_mb = peakRssMb();
      reference.emplace();
    }
    // Set-ups follow every timed run, for about a tenth of its time, so
    // they sample the same stretch of the host's load as the timed runs.
    setup_s.emplace_back();
    for (std::size_t i = 0;
         i < kSetupRunsPerRun && setup_total_s < 0.1 * timed_total_s; ++i)
      setup();
    // So do reference passes, for about a seventh of its time.
    reference_s.emplace_back();
    for (std::size_t i = 0;
         i < kReferencePassesPerRun &&
         (i == 0 || reference_total_s < 0.15 * timed_total_s);
         ++i) {
      reference_s.back().push_back(reference->pass());
      reference_total_s += reference_s.back().back();
    }
    round_s = secondsSince(round_start);
  }
  while (setup_s.back().size() < kMinSetupRuns) setup();
  checks.expect("reference_repeatable", reference->ok());

  // Scales each run's times to the reference's nominal host speed (see
  // reference.h), by the passes on either side of the run.
  std::vector<double> all_passes, raw_setups, setups;
  for (std::size_t k = 0; k < walls.size(); ++k) {
    std::vector<double> around = reference_s[k];
    if (k > 0)
      around.insert(around.end(), reference_s[k - 1].begin(),
                    reference_s[k - 1].end());
    const double scale = ratio(kReferenceNominalS, median(around));
    if (k > 0)
      for (double& u : units[k - 1]) u *= scale;
    for (const double s : setup_s[k]) {
      raw_setups.push_back(s);
      setups.push_back(s * scale);
    }
    all_passes.insert(all_passes.end(), reference_s[k].begin(),
                      reference_s[k].end());
  }
  const double run_s = medianOfUnits(units);
  checks.expect("units_repeatable", run_s > 0);

  std::printf("runs %zu timed, %zu setup, %zu reference, %zu units each; "
              "scaled run %.4f s, raw set-up median %.6f s, host slowdown "
              "%.4f; raw seconds per run:",
              walls.size(), setups.size(), all_passes.size(),
              units.front().size(), run_s, median(raw_setups),
              median(all_passes) / kReferenceNominalS);
  for (const double s : walls) std::printf(" %.4f", s);
  std::printf("\n");
  out.metrics = {
      {"accesses_per_s", ratio(static_cast<double>(accesses), run_s), "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"success_ratio", ratio(static_cast<double>(out.succeeded),
                              static_cast<double>(out.attempted)),
       "ratio"},
  };
}

// The fig5 methods, in campaign order; fig7's two cells reuse two names.
constexpr const char* kMethodNames[] = {"native_vpn",  "openvpn",
                                        "tor",         "shadowsocks",
                                        "scholarcloud", "serverless"};

void perLayer(const Workload& w, const Sizes& sizes, const Args& a,
              Checks& checks, Outcome& out) {
  // Untraced and traced runs alternate for half the budget; the replays
  // take most of the rest.
  SeedRuns runs(w, sizes, a.seed, checks, out);
  std::vector<double> plain_s, traced_s;
  std::map<std::string, std::vector<double>> part_walls;
  std::map<std::string, std::uint64_t> part_accesses;
  Observation obs;
  RunResult traced;
  const auto start = Clock::now();
  while (plain_s.empty() || secondsSince(start) < a.seconds / 2) {
    double wall = 0;
    const RunResult plain = runs.run(nullptr, wall);
    plain_s.push_back(wall);
    for (const Part& p : plain.parts) {
      part_walls[p.name].push_back(p.wall_s);
      part_accesses[p.name] = p.accesses;
    }
    obs = Observation{};
    traced = runs.run(&obs, wall);
    traced_s.push_back(wall);
  }
  const LayerCosts costs =
      measureLayers(obs, a.seed, a.smoke ? 0.05 : 0.3 * a.seconds);
  checks.expect("layer_replays", costs.ok);

  const auto accesses = static_cast<double>(traced.attempted);
  const double wall_s = fastest(plain_s);
  const auto per_access = [&](double v) { return ratio(v, accesses); };
  const auto share = [&](double count, double ns) {
    return ratio(count * ns * 1e-9, wall_s);
  };
  const double inspected = obs.metric("gfw.packets_inspected");
  const double cache_hits = obs.metric("sc.fleet.cache_hits");
  const double leases = obs.metric("sc.population.fleet_leases");
  const double denied = obs.metric("sc.population.lease_denied");
  const auto border_bytes = static_cast<double>(obs.border_payload_bytes);

  out.metrics = {
      {"sim.events_per_access", per_access(static_cast<double>(obs.sim_events)),
       "count/access"},
      {"sim.max_queue_depth", static_cast<double>(obs.sim_max_queue_depth),
       "count"},
      {"sim.compactions", static_cast<double>(obs.sim_compactions), "count"},
      {"sim.events_per_s", ratio(static_cast<double>(obs.sim_events), wall_s),
       "1/s"},
      {"sim.busy_share", ratio(obs.sim_wall_s, traced_s.back()), "share"},
      {"net.packets_per_access",
       per_access(obs.metric("net.packets.originated")),
       "count/access"},
      {"net.bytes_per_access", per_access(obs.metric("net.bytes.originated")),
       "B/access"},
      {"net.drops_per_access",
       per_access(obs.metric("net.drop.random") +
                  obs.metric("net.drop.filter") +
                  obs.metric("net.drop.queue")),
       "count/access"},
      {"net.codec_ns", costs.codec_ns, "ns"},
      {"transport.retx_per_access",
       per_access(obs.metric("tcp.retransmissions")),
       "count/access"},
      {"transport.rto_per_access", per_access(obs.metric("tcp.rto_fires")),
       "count/access"},
      {"crypto.aes_cfb_ns_per_byte", costs.aes_cfb_ns_per_byte, "ns/B"},
      {"crypto.blinding_ns_per_byte", costs.blinding_ns_per_byte, "ns/B"},
      {"crypto.border_payload_bytes_per_access", per_access(border_bytes),
       "B/access"},
      {"crypto.est_share_min", share(border_bytes, costs.aes_cfb_ns_per_byte),
       "share"},
      {"http.parse_ns", costs.parse_ns, "ns"},
      {"http.headers_set_ns", costs.headers_set_ns, "ns"},
      {"gfw.inspected_per_access", per_access(inspected), "count/access"},
      {"gfw.flows_per_access", per_access(obs.metric("gfw.flows_classified")),
       "count/access"},
      {"gfw.scan_ns", costs.scan_ns, "ns"},
      {"gfw.est_share", share(inspected, costs.scan_ns), "share"},
      {"gfw.recompile_ms", costs.recompile_ms, "ms"},
      {"gfw.blocklist_writes", static_cast<double>(obs.blocklist_writes),
       "count"},
      {"core.proxied_per_access",
       per_access(obs.metric("sc.domestic.requests_proxied")), "count/access"},
      {"core.pool_saturation", obs.metric("sc.domestic.pool_saturation"),
       "count"},
      {"fleet.respawns", obs.metric("sc.fleet.respawns"), "count"},
      {"fleet.failovers", obs.metric("sc.fleet.failovers"), "count"},
      {"fleet.cache_hit_ratio",
       ratio(cache_hits, cache_hits + obs.metric("sc.fleet.cache_misses")),
       "ratio"},
      {"fleet.cache_lookup_ns", costs.cache_lookup_ns, "ns"},
      {"population.sample_ns", costs.sample_ns, "ns"},
      {"population.est_share",
       share(obs.metric("sc.population.accesses"), costs.sample_ns), "share"},
      {"population.lease_denied_ratio", ratio(denied, leases + denied),
       "ratio"},
  };
  for (const char* name : kMethodNames) {
    const auto it = part_walls.find(name);
    const double rate =
        it == part_walls.end()
            ? 0
            : static_cast<double>(part_accesses[name]) / fastest(it->second);
    out.metrics.push_back(
        {std::string("measure.") + name + ".accesses_per_s", rate, "1/s"});
  }
  out.metrics.push_back(
      {"measure.trace_overhead", ratio(fastest(traced_s), wall_s), "ratio"});
  out.metrics.push_back(
      {"measure.fail_ratio",
       1 - ratio(static_cast<double>(out.succeeded),
                 static_cast<double>(out.attempted)),
       "ratio"});
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& candidate : workloads())
    if (a.workload == candidate.name) w = &candidate;
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Sizes sizes = a.smoke ? smokeSizes() : fullSizes();
  std::printf("perfbench workload=%s seed=%llu trace=%d smoke=%d build=%s "
              "threads=1 nproc=%u\n",
              w->name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              a.smoke ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());

  Checks checks;
  // The neighbouring seed runs first: it warms the allocator and code
  // paths, and its digest must differ from this seed's.
  const RunResult other = w->run(sizes, a.seed + 1, false, nullptr);
  checkRun(other, checks);

  Outcome out;
  if (a.trace)
    perLayer(*w, sizes, a, checks, out);
  else
    endToEnd(*w, sizes, a, checks, out);
  checks.expect("digest_seed_sensitive", out.digest != other.digest);

  std::printf("digest %s seed=%llu %016llx\n", w->name,
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(out.digest));
  checks.print();
  const bool correct = checks.ok();
  // A failed check counts every access of the run as failed.
  if (!correct) {
    for (Metric& m : out.metrics)
      if (m.name == "success_ratio") m.value = 0;
  }
  for (const Metric& m : out.metrics)
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(correct ? 0 : out.attempted));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--smoke]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
