// The serverless method's spawn source: one cloud function per endpoint of
// the gateway's fleet::Fleet.
//
// The Fleet does what every tunnel pool does (fronted dials, picks, health
// pings, retire and respawn); the FunctionProvider is what its SpawnFn
// calls, and what it tells of every retire. The provider owns what is
// particular to a cloud function — cold start, lifetime and bill — and no
// topology: a ProvisionFn from the embedding world (cell, test, Testbed)
// creates the node, stack and FunctionRuntime.
//
// Lifecycle of one endpoint:
//   spawn   — the Fleet asks for endpoint `seq`. The static baseline
//             declines after the pre-warm set; otherwise the provider draws
//             a cold start from its forked rng stream, provisions the
//             function (whose runtime holds its first TLS accept until
//             warm), opens a kColdStart span and bills from this instant
//             (cold starts are paid).
//   warm    — the cold start elapses: the span ends and the TTL is armed.
//   reap    — the TTL expires: a draining Fleet::retireEndpoint. Open
//             streams finish, no new picks land, a fresh function replaces
//             it. Ephemeral by construction, not a failure.
//   retire  — the Fleet's notification, for a reap or a ban (the health
//             prober walked the endpoint to kDown and the Fleet cut it):
//             billing stops, and a ban is counted in the cost model.
//
// Ids are the Fleet's sequence numbers, never reused, so a scheduled reap
// for a dead id is a harmless map miss.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "fleet/fleet.h"
#include "obs/span.h"
#include "serverless/cost.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace sc::serverless {

// Cold-start latency is drawn uniformly in [kColdStartMin, kColdStartMax]
// per spawn — the tail the bench's cold_start section checks against.
inline constexpr sim::Time kColdStartMin = 150 * sim::kMillisecond;
inline constexpr sim::Time kColdStartMax = 900 * sim::kMillisecond;

struct ProviderOptions {
  int prewarm = 2;  // endpoints the fleet keeps: its initial size
  sim::Time ttl = 120 * sim::kSecond;  // endpoint lifetime; 0 = no reaping
  // false = static baseline: every spawn after the pre-warm set is
  // declined, so a permanent ban wave exhausts it for good (the frontier's
  // dead comparison row).
  bool respawn = true;
};

class FunctionProvider {
 public:
  // Provisions function `seq` whose runtime warms at `warm_at`; returns
  // the endpoint its fronted TLS listens on, or nullopt to decline.
  using ProvisionFn = std::function<std::optional<fleet::EndpointSpawn>(
      int seq, sim::Time warm_at)>;

  struct Endpoint {
    std::string name;
    obs::SpanId cold_span = 0;
  };

  // `cost` may be null (lifecycle without accounting, for unit tests).
  // `tag` labels trace events (the serverless tunnel measurement tag).
  FunctionProvider(sim::Simulator& sim, ProviderOptions options,
                   ProvisionFn provision, CostModel* cost = nullptr,
                   std::uint32_t tag = 0);

  FunctionProvider(const FunctionProvider&) = delete;
  FunctionProvider& operator=(const FunctionProvider&) = delete;

  // The Fleet's SpawnFn.
  std::optional<fleet::EndpointSpawn> spawn(int seq);

  // Feeds `fleet`: its retires reach this provider, and TTL reaps retire
  // through it. Call once, right after constructing the fleet.
  void serve(fleet::Fleet& fleet);

  // Reaps `id` now, as its TTL would.
  void reap(int id);

  // ---- introspection ----
  const Endpoint* get(int id) const;
  int liveCount() const { return static_cast<int>(endpoints_.size()); }
  std::uint64_t spawns() const noexcept { return spawns_; }
  std::uint64_t reaps() const noexcept { return reaps_; }

 private:
  void retired(int id, bool banned);
  void trace(const char* what, const std::string& detail, std::int64_t a);

  sim::Simulator& sim_;
  ProviderOptions options_;
  ProvisionFn provision_;
  CostModel* cost_;
  std::uint32_t tag_;
  sim::Rng rng_;
  fleet::Fleet* fleet_ = nullptr;
  std::map<int, Endpoint> endpoints_;
  std::uint64_t spawns_ = 0;
  std::uint64_t reaps_ = 0;
};

}  // namespace sc::serverless
