// Chaos sweep world: one access method living through a scripted fault
// timeline, with recovery measured from the trace stream.
//
// Two world shapes behind one cell interface:
//   - baseline methods (native VPN, OpenVPN, Tor, Shadowsocks, direct) run
//     inside a full Testbed with Link + GFW injectors armed;
//   - kScholarCloud runs a CellWorld with a FleetDeployment (cell_world.h:
//     RemoteProxy endpoints on fresh US IPs) and all four injectors, so
//     "egress" IP bans and "fleet:any" crashes land on live endpoints and
//     the retire/respawn loop is the recovery under test;
//   - kServerless runs the serverless world (serverless_scenario.h) and
//     folds its result down to this one.
//
// Tracing is always on in a chaos cell: the RecoveryTracker hangs off the
// tracer sink, and the exported trace/metrics JSONL are the byte-identity
// witnesses for the determinism tests (same seed + same script => same
// bytes, any thread count).
#pragma once

#include <cstdint>
#include <string>

#include "chaos/fault.h"
#include "measure/cell_world.h"
#include "measure/testbed.h"
#include "sim/simulator.h"

namespace sc::measure {

struct ChaosCellOptions {
  std::uint64_t seed = 42;
  Method method = Method::kScholarCloud;
  int fleet_size = 3;
  int users = 3;
  chaos::ChaosScript script;
  sim::Time duration = 120 * sim::kSecond;
  // Fixed access cadence (next attempt this long after the last completes);
  // users start staggered by 250ms so attempts interleave deterministically.
  sim::Time access_interval = 2 * sim::kSecond;
  // Raw-GET worlds only (the fleet and serverless shapes).
  sim::Time fetch_timeout = 10 * sim::kSecond;
  std::size_t trace_capacity = obs::Tracer::kDefaultCap;
  // Baseline (Testbed) worlds only: resolve symbolic "egress" bans to the
  // method's GFW-visible border IP (Shadowsocks remote, Tor's fronting
  // CDN). Off by default — the BENCH_chaos grid keeps its historical
  // semantics where baselines are killed by policy faults, not IP bans.
  bool ban_method_endpoint = false;
};

struct ChaosCellResult : RecoveryReadout {
  int attempts = 0;
  int successes = 0;
  double success_ratio = 0.0;
  std::uint64_t respawns = 0;  // fleet and serverless worlds only
  // JSONL exports of the cell's own Hub, captured before the world dies.
  std::string metrics_jsonl;
  std::string trace_jsonl;
};

ChaosCellResult runChaosCell(const ChaosCellOptions& options);

}  // namespace sc::measure
