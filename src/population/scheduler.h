// HybridScheduler: runs the flow-level background population inside the
// SAME sim clock as a packet-level cohort (the hybrid-fidelity engine,
// ROADMAP item 1).
//
// Each tick it converts per-class diurnal rates into an integer number of
// arrivals (deterministic fractional accumulator — no Poisson draw, so the
// arrival count per tick is a pure function of the clock), evaluates each
// arrival through the FlowModel, and — this is the hybrid part — drives the
// resulting load into the REAL fleet structures the packet path uses:
//
//   - a ScholarCloud access consults/warms the shared ShardedLruCache with
//     the same host+path keys the domestic proxy builds, so background
//     traffic changes the hit rate the packet cohort experiences;
//   - a cross-border ScholarCloud access leases a balancer slot for its
//     modeled page-load time, so sc.fleet.active_streams — the gauge the
//     autoscaler watches — carries the background load and the packet
//     cohort contends for the same pool.
//
// Determinism: a fixed rng draw schedule per arrival (the user, one draw
// that rejection sampling may repeat; the query, one; the flow sample's two
// normals, four), a forked sub-stream per scheduler, visited state in a
// flat bitset. Same seed => byte-identical metrics and traces on any
// machine and (cell-per-thread) any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_api.h"
#include "fleet/fleet.h"
#include "obs/hub.h"
#include "population/flow_model.h"
#include "population/population.h"
#include "sim/simulator.h"

namespace sc::population {

struct SchedulerOptions {
  // Where in the (diurnal) day the sim clock starts.
  sim::Time day_phase = 9 * sim::kHour;
  // Diurnal day-seconds advanced per sim-second: 1.0 replays the day in
  // real sim time; 1440 compresses a day into a 60 s sim. Arrival counts
  // scale with it so the swept day always integrates to the same total.
  double time_scale = 1.0;
  // Streams per live endpoint assumed when turning fleet active_streams
  // into a utilization in [0, ~3] (matches FleetOptions
  // tunnels_per_endpoint in the scenarios).
  int streams_per_endpoint = 2;
};

// Per-method aggregates (sums, not histograms: cheap at 1M+ scale and
// exactly comparable across serial/parallel runs).
struct MethodStats {
  std::uint64_t accesses = 0;
  std::uint64_t ok = 0;
  std::uint64_t first_visits = 0;
  std::uint64_t cache_hits = 0;
  double plt_sum_s = 0;
  double rtt_sum_ms = 0;
  double plr_sum_pct = 0;
  double bytes_sum = 0;
};

struct SchedulerStats {
  std::uint64_t ticks = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t blocked = 0;        // direct accesses the GFW stopped
  std::uint64_t border_crossings = 0;
  std::uint64_t fleet_leases = 0;
  std::uint64_t lease_denied = 0;   // pool saturated: no backend available
  std::array<MethodStats, kMethodCount> by_method{};

  // Order- and platform-stable FNV-1a digest over every field (doubles by
  // bit pattern). Two runs producing the same digest produced the same
  // accesses — the serial-vs-parallel identity check.
  std::uint64_t digest() const noexcept;
};

class HybridScheduler {
 public:
  // `fleet` is optional: without one the background population still runs
  // (utilization 0, no cache), which is the pure flow-level mode the
  // validation bench uses. `model` and `flow` are copied: a scheduler is
  // self-contained within its cell.
  HybridScheduler(sim::Simulator& sim, PopulationModel model, FlowModel flow,
                  fleet::Fleet* fleet, SchedulerOptions options);

  // Schedules ticks from now until `horizon` (exclusive). The caller owns
  // the sim loop (sim.run / runUntil), same as every other driver.
  void start(sim::Time horizon);

  const SchedulerStats& stats() const noexcept { return stats_; }
  const PopulationModel& population() const noexcept { return model_; }
  const FlowModel& flow() const noexcept { return flow_; }

  // Diurnal day-time the scheduler evaluates at sim time `t`.
  sim::Time dayTime(sim::Time t) const;

  // The shared-cache key of query `rank`: PopulationModel::queryCacheKey's
  // text with its hash, both built on the rank's first use and kept for
  // the scheduler's life.
  core::CacheKey queryKey(int rank);

 private:
  struct QueryKey {
    std::string text;  // empty until the rank is first used
    std::uint64_t hash = 0;
  };

  void tick(sim::Time horizon);
  void oneArrival(std::size_t class_idx);
  LoadState loadState(Method m, int query_rank);
  void trace(const char* what, const std::string& detail, std::int64_t a);

  sim::Simulator& sim_;
  PopulationModel model_;
  FlowModel flow_;
  fleet::Fleet* fleet_;  // nullable
  SchedulerOptions options_;
  sim::Rng rng_;

  std::vector<double> acc_;      // per-class fractional arrival accumulator
  std::vector<bool> visited_;    // first-visit bit per scholar
  std::vector<QueryKey> query_keys_;  // one per rank once used, lazily
  SchedulerStats stats_;

  obs::Counter* c_accesses_ = nullptr;
  obs::Counter* c_ok_ = nullptr;
  obs::Counter* c_blocked_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Counter* c_border_ = nullptr;
  obs::Counter* c_leases_ = nullptr;
  obs::Counter* c_lease_denied_ = nullptr;
  obs::Gauge* g_rate_ = nullptr;
  obs::Histogram* h_plt_ = nullptr;
};

}  // namespace sc::population
