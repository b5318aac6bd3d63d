// Serverless chaos/cost world: the ephemeral-endpoint method living through
// a scripted fault timeline, with the cost meter running.
//
// One world shape, built from the shared parts in cell_world.h: a CellWorld
// with a ServerlessDeployment (the gateway and its fleet of FunctionRuntime
// endpoints, spawned on fresh US IPs behind the fronted SNI),
// Link + DNS + GFW injectors armed so "egress" IP bans land on live endpoint
// IPs, and FetchLoop users hammering the gateway. Two configurations of the
// same world make the headline comparison:
//   - respawn on (the method): banned endpoints are retired and replaced on
//     fresh IPs — success rate recovers after every ban in the wave;
//   - respawn off (the static baseline): the same ban wave permanently
//     exhausts the endpoint set — success rate goes to zero and stays there.
//
// Tracing is always on: the RecoveryTracker hangs off the tracer sink, and
// the exported trace/metrics JSONL are the byte-identity witnesses for the
// serial-vs-parallel determinism check in BENCH_serverless.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/fault.h"
#include "measure/cell_world.h"
#include "measure/testbed.h"
#include "sim/simulator.h"

namespace sc::measure {

struct ServerlessCellOptions {
  std::uint64_t seed = 42;
  int users = 3;
  int prewarm = 2;
  sim::Time ttl = 120 * sim::kSecond;  // 0 = endpoints never reaped
  bool respawn = true;                 // false = static-endpoint baseline
  chaos::ChaosScript script;
  sim::Time duration = 120 * sim::kSecond;
  sim::Time access_interval = 2 * sim::kSecond;
  sim::Time fetch_timeout = 10 * sim::kSecond;
  std::size_t trace_capacity = obs::Tracer::kDefaultCap;
};

struct ServerlessCellResult : RecoveryReadout {
  int attempts = 0;
  int successes = 0;
  double success_ratio = 0.0;
  // Attempts whose start postdates the script's last fault: the recovery
  // window. A surviving method keeps succeeding here; a dead one does not.
  int attempts_after_last_fault = 0;
  int successes_after_last_fault = 0;
  // Cost-model readouts at cell end.
  double endpoint_seconds = 0.0;
  double cost_units = 0.0;
  std::uint64_t invocations = 0;
  std::uint64_t spawns = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t bans = 0;
  std::uint64_t reaps = 0;
  double cold_start_max_ms = 0.0;
  double cold_start_mean_ms = 0.0;
  int final_live = 0;       // endpoints alive when the cell ended
  int final_connected = 0;  // of those, with a connected fronted tunnel
  std::uint64_t border_bytes = 0;  // fronted-dial bytes across the GFW
  // JSONL exports of the cell's own Hub, captured before the world dies.
  std::string metrics_jsonl;
  std::string trace_jsonl;
};

ServerlessCellResult runServerlessCell(const ServerlessCellOptions& options);

}  // namespace sc::measure
