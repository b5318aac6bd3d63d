// The benchmark's four workloads, each a call into the simulator's public
// measurement API at a size chosen from the seed-independent Sizes table.
//
// A workload run returns what the output checks need (access counts, setup
// success, a digest of every result it produced) and, when handed an
// Observation, also what the per-layer metrics need. Observing must never
// change the digest: the traced run is checked against the untraced one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/packet.h"

namespace perfbench {

struct Sizes {
  int fig5_accesses_per_method = 30;
  int fig7_clients = 120;
  int fig7_accesses_per_client = 3;
  std::uint64_t population_scholars = 1'000'000;
  int population_day_s = 60;
  int fleet_users = 24;
  int fleet_duration_s = 900;
};

// Full-size workloads, and the tiny ones the smoke test runs.
Sizes fullSizes();
Sizes smokeSizes();

// Per-layer inputs collected by a traced run.
struct Observation {
  // Simulator counters, summed over every world the run built.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_max_queue_depth = 0;
  std::uint64_t sim_compactions = 0;
  double sim_wall_s = 0;
  // Registry counters and gauges by name, summed over worlds (histograms
  // contribute their sample count).
  std::map<std::string, double> metrics;
  // Border-link traffic: every packet is counted, every kCaptureStride-th
  // one is kept for the codec/crypto/DPI replays.
  std::uint64_t border_packets = 0;
  std::uint64_t border_payload_bytes = 0;
  std::vector<sc::net::Packet> captured;
  // The GFW's domain blocklist at the end of the run, and how many
  // blocklist writes the measured horizon made.
  std::vector<std::string> domain_patterns;
  std::uint64_t blocklist_writes = 0;

  double metric(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  }
};

// One timed part of a run (a fig5 method campaign, a fig7 cell).
struct Part {
  std::string name;
  std::uint64_t accesses = 0;
  double wall_s = 0;
};

struct RunResult {
  std::uint64_t requested = 0;  // fewest accesses the run must attempt
  std::uint64_t attempted = 0;  // simulated accesses that ran
  std::uint64_t succeeded = 0;
  bool setup_ok = true;
  std::uint64_t digest = 0;
  std::vector<Part> parts;
};

struct Workload {
  const char* name;
  // Runs the workload once. `setup_only` sets the horizon to zero (no
  // accesses), which leaves world construction and method bring-up.
  RunResult (*run)(const Sizes& sizes, std::uint64_t seed, bool setup_only,
                   Observation* obs);
  // Simulated microseconds per timed unit of a run loop (see UnitTimer).
  std::int64_t slice_us;
};

// Splits the wall time of the calls made while it is alive into units: each
// slice of `slice_us` simulated microseconds of every Simulator run loop,
// and each stretch between loops. The simulation is the same as unsliced,
// so two runs of one seed give the same sequence of units, each the same
// work. One timer at a time.
class UnitTimer {
 public:
  explicit UnitTimer(std::int64_t slice_us);
  ~UnitTimer();
  UnitTimer(const UnitTimer&) = delete;
  UnitTimer& operator=(const UnitTimer&) = delete;

  // Closes the last unit and returns every unit's wall seconds, in order.
  std::vector<double> take();
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
