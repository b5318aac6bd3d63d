// Flow-level access model: the analytic fast path of the hybrid-fidelity
// simulation (ROADMAP item 1).
//
// The packet path pays per-packet cost for every access — TCP handshakes,
// tunnel frames, GFW inspection, retransmissions — which caps campaigns at
// hundreds of concurrent scholars. This model computes the same observables
// (PLT, RTT, PLR) in ONE closed-form evaluation per access, derived from the
// *same* inputs the packet path uses:
//
//   - path parameters  (net::WorldParams: propagation delays, jitter,
//     per-traversal trans-Pacific loss, server bandwidth);
//   - GFW policy       (gfw::GfwConfig via a read-only tap on the live Gfw:
//     per-class disciplines, technique switches, ICP leniency). The derived
//     per-method table is recomputed lazily when Gfw::policyVersion() moves,
//     mirroring the DPI engine's lazy recompile;
//   - cache state      (a ScholarCloud access that hits the shared domestic
//     cache never crosses the border: domestic-only RTT, zero border bytes,
//     zero GFW exposure);
//   - fleet state      (utilization of the live endpoint pool inflates the
//     server-side component — the contention the packet cohort also feels).
//
// What the model cannot see: per-packet emergent effects (probe timing
// races, RST injection mid-handshake, queue overflow bursts). The validation
// contract (DESIGN.md §12) therefore compares flow vs packet cell means on
// small populations and states tolerances; bench_population_scale enforces
// them.
//
// Per-method round-trip counts and overhead constants are calibrated against
// the packet-level testbed's measured Fig. 5/6 columns (EXPERIMENTS.md), the
// same way measure/calibration.h pins the world to the paper's regime.
#pragma once

#include <array>
#include <cstdint>

#include "gfw/gfw.h"
#include "net/topology.h"
#include "sim/rng.h"

namespace sc::population {

// Mirrors the paper's five methods plus blocked direct access, plus the
// ephemeral serverless method layered on afterwards. Kept ordinal so
// per-method tables are flat arrays.
enum class Method {
  kNativeVpn = 0,
  kOpenVpn = 1,
  kTor = 2,
  kShadowsocks = 3,
  kScholarCloud = 4,
  kDirect = 5,
  kServerless = 6,
};
inline constexpr std::size_t kMethodCount =
    static_cast<std::size_t>(Method::kServerless) + 1;
const char* methodName(Method m);

// Calibrated per-method path profile. Round-trip counts and setup penalties
// are fitted to the packet testbed's measured values (EXPERIMENTS.md Fig. 5
// tables) at the calibrated world; everything latency-shaped then scales
// with WorldParams, and everything loss-shaped with GfwConfig.
struct MethodProfile {
  double rtts_first = 8.0;      // round trips for a first visit (setup + TLS)
  double rtts_sub = 6.0;        // round trips for a warm subsequent access
  double first_setup_s = 0.0;   // fixed bootstrap cost (Tor consensus etc.)
  double extra_path_ms = 0.0;   // tunnel/relay detour beyond the raw path RTT
  double server_cpu_s = 0.05;   // origin + proxy processing per access
  double loss_stall_s = 8.0;    // expected stall per unit loss probability
  double bytes_per_access = 28000;  // client bytes, Fig. 6a regime
  double border_frac = 1.0;     // share of packets that cross the border
};

// One evaluated access. `plr_pct` is the expected loss rate of this access's
// packets (what a Fig. 5c campaign converges to), not a sampled outcome.
struct FlowAccess {
  bool ok = false;
  double plt_s = 0;
  double rtt_ms = 0;
  double plr_pct = 0;
  double bytes = 0;
  bool crossed_border = false;
};

// Read-only fleet utilization tap (population -> fleet is a legal layer
// edge, but the model only needs two numbers, and the scheduler already
// owns the Fleet pointer — keep the model testable without one).
struct LoadState {
  double utilization = 0;  // leased streams / pool stream capacity, >= 0
  bool cache_hit = false;  // ScholarCloud: the shared domestic cache hit
};

class FlowModel {
 public:
  // `world` is copied (cells own their parameters); `gfw` is a nullable
  // read-only tap — when null, `fallback` is the (frozen) policy.
  FlowModel(net::WorldParams world, const gfw::Gfw* gfw,
            gfw::GfwConfig fallback = {});

  // Closed-form expected observables for one access under the current GFW
  // policy and `load`. Deterministic: same inputs, same outputs.
  FlowAccess expected(Method m, bool first_visit, LoadState load = {}) const;

  // Population path: expectation plus per-access jitter so aggregate
  // distributions have spread. Takes two normals' worth of rng draws per
  // call (2 * Rng::kNormalDraws), discarded unused when the access fails.
  FlowAccess sample(Method m, bool first_visit, LoadState load,
                    sim::Rng& rng) const;

  // ---- derived quantities (exposed for tests and reports) ----
  double baseRttMs() const;        // full client<->US path, jitter mean in
  double domesticRttMs() const;    // client<->domestic proxy only
  double disciplineOf(Method m) const;  // per-packet drop probability
  bool directBlocked() const;      // is an unproxied Scholar access blocked?
  const MethodProfile& profileOf(Method m) const;
  std::uint64_t policyVersionSeen() const noexcept { return policy_seen_; }

 private:
  const gfw::GfwConfig& policy() const;
  void refreshDerived() const;  // lazy, keyed on gfw policyVersion

  net::WorldParams world_;
  const gfw::Gfw* gfw_;  // nullable
  gfw::GfwConfig fallback_;
  std::array<MethodProfile, kMethodCount> profiles_;

  // Lazily derived per-method drop disciplines (mutable: expected() is
  // logically const; the derived table is a cache keyed on policy version,
  // the same shape as Gfw::refreshDpi).
  mutable std::array<double, kMethodCount> discipline_{};
  mutable bool direct_blocked_ = false;
  mutable std::uint64_t policy_seen_ = ~0ULL;
};

}  // namespace sc::population
