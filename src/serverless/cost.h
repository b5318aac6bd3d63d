// Serverless cost accounting: the economic half of the ephemeral-endpoint
// trade (ROADMAP item 2, CensorLess's framing). A function endpoint is
// billed for every second it exists — cold start included, idle included —
// plus a per-invocation fee. The interesting output is the frontier this
// buys: endpoint-seconds spent vs the blocked-rate achieved, compared to
// methods that pay for long-lived (and bannable) servers.
//
// Determinism: all accrual is sim-time arithmetic; the model never reads a
// clock of its own. Live endpoints accrue lazily — endpointSeconds() folds
// the open intervals in at call time — so the number is exact at any
// readout instant.
#pragma once

#include <cstdint>
#include <map>

#include "obs/hub.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace sc::serverless {

// Unit prices. The absolute scale is arbitrary (one cost unit per
// endpoint-second); only ratios matter to the frontier, and the default
// ratio makes an invocation worth ~20ms of endpoint time, roughly the
// duration-vs-request split of real function pricing.
struct CostRates {
  double per_endpoint_second = 1.0;
  double per_invocation = 0.02;
};

class CostModel {
 public:
  explicit CostModel(sim::Simulator& sim, CostRates rates = {});

  // ---- lifecycle accrual (driven by the FunctionProvider) ----
  void endpointStarted(int id);  // begins billing; counts one spawn
  void endpointStopped(int id);  // folds the open interval into the total
  void coldStart(sim::Time latency);
  void ban();  // an endpoint lost to a GFW IP ban (subset of stops)

  // ---- invocation accrual (driven by the FunctionRuntime) ----
  void invocation();

  // ---- readouts (live endpoints accrue up to sim.now()) ----
  double endpointSeconds() const;
  double totalCost() const {
    return rates_.per_endpoint_second * endpointSeconds() +
           rates_.per_invocation * static_cast<double>(invocations_);
  }
  std::uint64_t invocations() const noexcept { return invocations_; }
  std::uint64_t spawns() const noexcept { return spawns_; }
  std::uint64_t coldStarts() const noexcept { return cold_starts_; }
  std::uint64_t bans() const noexcept { return bans_; }
  int live() const noexcept { return static_cast<int>(started_.size()); }
  double coldStartMaxMs() const { return sim::toMillis(cold_max_); }
  double coldStartMeanMs() const {
    return cold_starts_ == 0 ? 0.0
                             : sim::toMillis(cold_total_) /
                                   static_cast<double>(cold_starts_);
  }

  // Pushes the derived gauges (endpoint_seconds, cost_units) into the
  // registry so a metrics dump taken right after is current. Counters are
  // kept hot on every event; only the time-integrals need a flush point.
  void publish();

 private:
  sim::Simulator& sim_;
  CostRates rates_;
  std::map<int, sim::Time> started_;  // live endpoint id -> billing start
  double accrued_s_ = 0;              // closed intervals, in seconds
  std::uint64_t invocations_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t bans_ = 0;
  sim::Time cold_total_ = 0;
  sim::Time cold_max_ = 0;

  // Pre-resolved instruments (null without a hub).
  obs::Counter* c_invocations_ = nullptr;
  obs::Counter* c_spawns_ = nullptr;
  obs::Counter* c_cold_starts_ = nullptr;
  obs::Counter* c_bans_ = nullptr;
  obs::Gauge* g_live_ = nullptr;
  obs::Gauge* g_endpoint_seconds_ = nullptr;
  obs::Gauge* g_cost_units_ = nullptr;
};

}  // namespace sc::serverless
