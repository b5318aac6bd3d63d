// Endpoint lifecycle for the serverless method: spawn, warm, reap, retire.
//
// A FunctionProvider owns the *identity* of every live cloud-function
// endpoint — not its topology. Spawning is delegated to SpawnFn exactly as
// fleet::Fleet does it: the embedding world (scenario, test, Testbed)
// creates the node/stack/FunctionRuntime and returns the tunnel endpoint;
// the provider only tracks ids, readiness, and sim-time TTLs.
//
// Lifecycle of one endpoint:
//   spawn   — SpawnFn provisions it; a cold-start latency is drawn
//             deterministically from the provider's forked rng stream and a
//             kColdStart span opens. The endpoint bills from this instant
//             (cold starts are paid, a real pricing sharp edge).
//   warm    — cold start elapses; the endpoint becomes dialable and
//             onReady fires (the dispatcher dials its fronted tunnel).
//   reap    — the TTL expires; ephemeral-by-construction churn. Retired
//             with cause "ttl" and, below the pre-warm floor, replaced.
//   retire  — any cause ("ttl", "ban"): billing stops, onRetire fires with
//             the cause so the dispatcher drains ("ttl") or severs ("ban")
//             its tunnel, and when respawn is on the pre-warm floor is
//             restored with fresh endpoints.
//
// Ids are never reused (monotone sequence), so a scheduled reap for a dead
// id is a harmless map miss — no generation counters needed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.h"
#include "obs/span.h"
#include "serverless/cost.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace sc::serverless {

// What SpawnFn returns: a freshly provisioned FunctionRuntime ready to
// accept fronted TLS. `seq` is the provider-wide sequence number (the
// endpoint's id), so respawns get new ids, names, and IPs.
struct FunctionSpawn {
  net::Endpoint endpoint;
  std::string name;
};

// Cold-start latency is drawn uniformly in [kColdStartMin, kColdStartMax]
// per spawn — the tail the bench's cold_start section checks against.
inline constexpr sim::Time kColdStartMin = 150 * sim::kMillisecond;
inline constexpr sim::Time kColdStartMax = 900 * sim::kMillisecond;

struct ProviderOptions {
  int prewarm = 2;    // floor of live endpoints kept provisioned
  int max_live = 16;  // hard cap incl. endpoints still cold-starting
  sim::Time ttl = 120 * sim::kSecond;  // endpoint lifetime; 0 = no reaping
  // false = static baseline: the endpoint set is frozen after the pre-warm
  // loop — no floor refill on retire AND no demand spawns, so a permanent
  // ban wave exhausts it for good (the frontier's dead comparison row).
  bool respawn = true;
};

class FunctionProvider {
 public:
  using SpawnFn = std::function<std::optional<FunctionSpawn>(int seq)>;

  struct Endpoint {
    int id = 0;
    net::Endpoint remote;
    std::string name;
    sim::Time spawned_at = 0;
    sim::Time ready_at = 0;  // spawned_at + drawn cold start
    bool ready = false;
    obs::SpanId cold_span = 0;
  };

  // `cost` may be null (lifecycle without accounting, for unit tests).
  // `tag` labels trace events (the serverless tunnel measurement tag).
  FunctionProvider(sim::Simulator& sim, ProviderOptions options, SpawnFn spawn,
                   CostModel* cost = nullptr, std::uint32_t tag = 0);

  FunctionProvider(const FunctionProvider&) = delete;
  FunctionProvider& operator=(const FunctionProvider&) = delete;

  // Provisions one endpoint (cause: "prewarm" | "demand" | "respawn").
  // Returns its id, or -1 when at max_live or SpawnFn declined.
  int spawn(const char* cause = "demand");

  // Stops billing, fires onRetire, and (respawn on) refills to the
  // pre-warm floor. Cause "ban" additionally counts a ban in the cost
  // model — that is the per-endpoint loss the frontier prices.
  void retire(int id, const char* cause);

  // ---- introspection ----
  const Endpoint* get(int id) const;
  std::vector<int> readyIds() const;  // ascending — deterministic pick order
  std::optional<int> idFor(net::Ipv4 ip) const;
  int liveCount() const { return static_cast<int>(endpoints_.size()); }
  int maxLive() const { return options_.max_live; }
  std::uint64_t spawns() const noexcept { return spawns_; }
  std::uint64_t retires() const noexcept { return retires_; }
  std::uint64_t reaps() const noexcept { return reaps_; }

  // ---- dispatcher wiring ----
  void setOnReady(std::function<void(int)> fn) { on_ready_ = std::move(fn); }
  using RetireFn = std::function<void(int id, std::string_view cause)>;
  void setOnRetire(RetireFn fn) { on_retire_ = std::move(fn); }

 private:
  void ensureFloor();
  void trace(const char* what, const std::string& detail, std::int64_t a);

  sim::Simulator& sim_;
  ProviderOptions options_;
  SpawnFn spawn_;
  CostModel* cost_;
  std::uint32_t tag_;
  sim::Rng rng_;
  std::map<int, Endpoint> endpoints_;
  int next_seq_ = 0;
  std::uint64_t spawns_ = 0;
  std::uint64_t retires_ = 0;
  std::uint64_t reaps_ = 0;
  std::function<void(int)> on_ready_;
  RetireFn on_retire_;
};

}  // namespace sc::serverless
