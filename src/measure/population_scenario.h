// Hybrid-fidelity population worlds (ROADMAP item 1).
//
// Two cell shapes, both self-contained (own Simulator/Hub/World, byte-
// identical under runCells for any thread count):
//
//   runPopulationCell — the hybrid world: a CellWorld with a fleet-backed
//   ScholarCloud deployment (cell_world.h) carrying (a) a packet-level
//   cohort of raw-GET users over TCP and (b) a flow-level background
//   population (HybridScheduler) of up to millions of scholars. The
//   background drives real load into the fleet's balancer slots, shared
//   cache, and autoscaler counters, so the cohort's measured latencies
//   respond to population-scale demand the packet path could never simulate
//   directly.
//
//   runValidationCell — the fidelity contract: one packet-level Testbed
//   campaign (measure::runAccessCampaign) vs the FlowModel's closed-form
//   prediction for the same method under the same calibrated world and GFW
//   config. DESIGN.md §12 states the tolerances; bench_population_scale
//   fails if any method drifts out.
#pragma once

#include <cstdint>
#include <string>

#include "population/scheduler.h"
#include "sim/simulator.h"

namespace sc::measure {

struct PopulationCellOptions {
  std::uint64_t seed = 42;
  // Background population.
  std::uint64_t scholars = 100000;
  double sc_adoption = 0.0;
  population::SchedulerOptions scheduler;
  bool background = true;  // false: cohort-only control cell
  // Packet-level cohort (0 disables it; pure flow-level campaign).
  int cohort_users = 0;
  // Fleet.
  int fleet_size = 2;
  int tunnels_per_endpoint = 2;
  bool autoscale = false;
  bool cache = true;
  sim::Time duration = 60 * sim::kSecond;
  bool tracing = false;
};

struct PopulationCellResult {
  population::SchedulerStats background_stats;
  std::uint64_t background_digest = 0;
  // Packet-level cohort observables.
  int cohort_attempts = 0;
  int cohort_successes = 0;
  double cohort_plt_mean_s = 0;
  double cohort_plt_max_s = 0;
  // Shared-structure state after the run.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  int final_fleet_size = 0;
  double peak_active_streams = 0;
  std::string metrics_jsonl;
  std::string trace_jsonl;  // empty unless options.tracing
};

PopulationCellResult runPopulationCell(const PopulationCellOptions& options);

// ---- flow-vs-packet validation -----------------------------------------

struct ValidationCellOptions {
  population::Method method = population::Method::kScholarCloud;
  std::uint64_t seed = 42;
  int accesses = 40;
  // Tolerances (DESIGN.md §12). PLT and RTT are relative; PLR is absolute
  // percentage points OR relative, whichever is looser (loss rates near
  // zero make pure relative error meaningless). First-visit PLT is a
  // single sample per campaign (one first visit per client), so its band
  // is wider than the subsequent-PLT mean's.
  double plt_rel_tol = 0.35;
  double plt_first_rel_tol = 0.50;
  // Tor's RTT swings with the sampled circuit, so the RTT band covers the
  // circuit-to-circuit spread, not just path calibration.
  double rtt_rel_tol = 0.20;
  double plr_abs_tol_pp = 0.50;
  double plr_rel_tol = 0.35;
};

struct ValidationCellResult {
  population::Method method = population::Method::kScholarCloud;
  // Packet-level campaign means.
  double packet_plt_first_s = 0;
  double packet_plt_sub_s = 0;
  double packet_rtt_ms = 0;
  double packet_plr_pct = 0;
  // Flow-model closed forms.
  double flow_plt_first_s = 0;
  double flow_plt_sub_s = 0;
  double flow_rtt_ms = 0;
  double flow_plr_pct = 0;
  // Per-observable relative errors (PLR also absolute).
  double plt_first_rel_err = 0;
  double plt_sub_rel_err = 0;
  double rtt_rel_err = 0;
  double plr_abs_err_pp = 0;
  bool pass = false;
};

ValidationCellResult runValidationCell(const ValidationCellOptions& options);

}  // namespace sc::measure
