#include "population/flow_model.h"

#include <algorithm>

namespace sc::population {

const char* methodName(Method m) {
  switch (m) {
    case Method::kNativeVpn: return "native-vpn";
    case Method::kOpenVpn: return "openvpn";
    case Method::kTor: return "tor";
    case Method::kShadowsocks: return "shadowsocks";
    case Method::kScholarCloud: return "scholarcloud";
    case Method::kDirect: return "direct";
    case Method::kServerless: return "serverless";
  }
  return "?";
}

namespace {

// Round-trip counts / overheads fitted to the packet testbed's measured
// Fig. 5a/5b/5c + Fig. 6a columns (EXPERIMENTS.md) at the calibrated world.
// border_frac is the share of an access's packets that traverse the lossy
// GFW border (VPN keepalives and campus legs dilute it below 1; tunnel
// framing overhead pushes it above).
std::array<MethodProfile, kMethodCount> calibratedProfiles() {
  std::array<MethodProfile, kMethodCount> p{};
  // Native VPN: kernel PPTP/L2TP; chatty per-segment encapsulation makes the
  // first visit expensive, and 1 Hz LCP keepalives dilute border_frac.
  p[0] = {16.9, 6.6, 0.0, 15.5, 0.05, 8.0, 32200, 0.60};
  // OpenVPN: one TLS-style handshake up front, lean afterwards.
  p[1] = {13.0, 6.5, 0.0, 15.5, 0.05, 8.0, 28300, 0.37};
  // Tor via meek: ~7 s bootstrap (dead directory + blocked guards before the
  // bridge fallback), a relayed detour on every round trip, long-poll cell
  // padding in the byte count, and the fingerprint discipline's stalls.
  p[2] = {15.0, 9.6, 7.0, 242.5, 0.05, 10.0, 107900, 1.00};
  // Shadowsocks: the auth channel is re-established per access (the paper's
  // worst non-Tor subsequent PLT).
  p[3] = {20.0, 11.7, 0.0, 29.5, 0.05, 8.0, 27200, 1.09};
  // ScholarCloud: PAC-routed split proxy; the domestic hop keeps round
  // trips low, the persistent tunnel adds framing (border_frac > 1).
  p[4] = {6.6, 4.6, 0.0, 17.5, 0.05, 8.0, 25900, 1.20};
  // Direct: the uncensored shape (only reachable when the GFW is off).
  p[5] = {5.0, 4.0, 0.0, 0.0, 0.05, 8.0, 24200, 0.50};
  // Serverless: fronted-dispatch through a domestic gateway; round trips sit
  // near ScholarCloud's (same split-proxy shape) with a small detour for the
  // cloud-function hop, and tunnel framing pushes border_frac above 1. Cold
  // starts land in first_setup via the amortized per-access share — most
  // accesses hit a warm endpoint, so the fixed term stays 0 and the warm/cold
  // split shows up as rtts_first vs rtts_sub.
  p[6] = {7.0, 5.0, 0.0, 8.0, 0.05, 8.0, 26500, 1.25};
  return p;
}

constexpr double kMsPerUs = 1e-3;
// Contention shaping: how hard pool utilization inflates latency. The PLT
// slope matches the packet cohort's observed slowdown when the fleet is
// saturated; RTT moves less (queueing hits transfers more than pings).
constexpr double kPltLoadSlope = 0.35;
constexpr double kRttLoadSlope = 0.10;
constexpr double kMaxUtilization = 3.0;

}  // namespace

FlowModel::FlowModel(net::WorldParams world, const gfw::Gfw* gfw,
                     gfw::GfwConfig fallback)
    : world_(world),
      gfw_(gfw),
      fallback_(fallback),
      profiles_(calibratedProfiles()) {}

const gfw::GfwConfig& FlowModel::policy() const {
  return gfw_ != nullptr ? gfw_->config() : fallback_;
}

const MethodProfile& FlowModel::profileOf(Method m) const {
  return profiles_[static_cast<std::size_t>(m)];
}

double FlowModel::baseRttMs() const {
  const double one_way_us =
      static_cast<double>(world_.access_delay + world_.campus_cernet_delay +
                          world_.cernet_border_delay +
                          world_.transpacific_delay + world_.us_server_delay);
  // Jitter is uniform per traversal; its mean (half the bound) lands in the
  // expected RTT once per direction.
  const double jitter_us = static_cast<double>(world_.jitter_transpacific);
  return (2.0 * one_way_us + jitter_us) * kMsPerUs;
}

double FlowModel::domesticRttMs() const {
  // Client and domestic proxy both hang off the campus router.
  const double one_way_us = 2.0 * static_cast<double>(world_.access_delay);
  const double jitter_us = static_cast<double>(world_.jitter_domestic);
  return (2.0 * one_way_us + jitter_us) * kMsPerUs;
}

void FlowModel::refreshDerived() const {
  const std::uint64_t version = gfw_ != nullptr ? gfw_->policyVersion() : 0;
  if (policy_seen_ == version) return;
  policy_seen_ = version;
  const gfw::GfwConfig& c = policy();

  double vpn = 0.0;
  if (c.block_vpn_protocols && c.protocol_fingerprinting)
    vpn = c.vpn_block_discipline;  // the 2012–2015 era
  discipline_[static_cast<std::size_t>(Method::kNativeVpn)] = vpn;
  discipline_[static_cast<std::size_t>(Method::kOpenVpn)] = vpn;

  double tor = 0.0;
  if (c.protocol_fingerprinting) tor = c.tor_discipline;
  else if (c.entropy_classification) tor = c.unknown_discipline;
  discipline_[static_cast<std::size_t>(Method::kTor)] = tor;

  discipline_[static_cast<std::size_t>(Method::kShadowsocks)] =
      c.entropy_classification ? c.shadowsocks_discipline : 0.0;

  // ScholarCloud is a registered ICP by construction (the paper's thesis);
  // leniency excuses the unknown-protocol throttle unless the hypothetical
  // throttle-everything policy is armed.
  double sc = 0.0;
  if (c.entropy_classification && c.throttle_all_unknown)
    sc = c.unknown_discipline;
  discipline_[static_cast<std::size_t>(Method::kScholarCloud)] = sc;

  discipline_[static_cast<std::size_t>(Method::kDirect)] = 0.0;
  // Serverless: fronted TLS with a real browser fingerprint — the flow the
  // GFW classifies is ordinary kTls to an unremarkable front domain, so no
  // per-class discipline applies at any policy level. Per-endpoint IP bans
  // (its actual failure mode) are a packet-world phenomenon handled by the
  // provider's churn, invisible at flow granularity.
  discipline_[static_cast<std::size_t>(Method::kServerless)] = 0.0;
  direct_blocked_ = c.ip_blocking || c.dns_poisoning || c.keyword_filtering ||
                    c.tls_sni_filtering;
}

double FlowModel::disciplineOf(Method m) const {
  refreshDerived();
  return discipline_[static_cast<std::size_t>(m)];
}

bool FlowModel::directBlocked() const {
  refreshDerived();
  return direct_blocked_;
}

FlowAccess FlowModel::expected(Method m, bool first_visit,
                               LoadState load) const {
  refreshDerived();
  const MethodProfile& prof = profileOf(m);
  FlowAccess out;

  if (m == Method::kDirect && direct_blocked_) {
    // The unproxied access the paper opens with: poisoned DNS / filtered
    // SNI. It fails before any page byte moves.
    out.ok = false;
    out.rtt_ms = baseRttMs();
    out.plr_pct = 100.0;
    return out;
  }

  // A ScholarCloud access served from the shared domestic cache never
  // leaves the campus: domestic RTT, no border bytes, no GFW exposure.
  if (m == Method::kScholarCloud && load.cache_hit) {
    const double rtt_s = domesticRttMs() * 1e-3;
    const double rtts = first_visit ? prof.rtts_first : prof.rtts_sub;
    out.ok = true;
    out.rtt_ms = domesticRttMs();
    out.plt_s = rtts * rtt_s + 0.005;  // proxy lookup + local transfer
    out.plr_pct = 0.0;
    out.bytes = prof.bytes_per_access;
    out.crossed_border = false;
    return out;
  }

  const double u = std::min(std::max(load.utilization, 0.0), kMaxUtilization);
  const double rtt_ms =
      (baseRttMs() + prof.extra_path_ms) * (1.0 + kRttLoadSlope * u);
  const double rtt_s = rtt_ms * 1e-3;
  const double discipline = discipline_[static_cast<std::size_t>(m)];
  const double loss_frac =
      prof.border_frac * (world_.transpacific_loss + discipline);

  const double rtts = first_visit ? prof.rtts_first : prof.rtts_sub;
  const double transfer_s =
      prof.bytes_per_access * 8.0 / world_.server_bandwidth_bps;
  double plt = rtts * rtt_s + transfer_s + prof.server_cpu_s +
               loss_frac * prof.loss_stall_s;
  if (first_visit) plt += prof.first_setup_s;
  plt *= 1.0 + kPltLoadSlope * u;

  out.ok = true;
  out.plt_s = plt;
  out.rtt_ms = rtt_ms;
  out.plr_pct = 100.0 * loss_frac;
  out.bytes = prof.bytes_per_access;
  out.crossed_border = true;
  return out;
}

FlowAccess FlowModel::sample(Method m, bool first_visit, LoadState load,
                             sim::Rng& rng) const {
  FlowAccess out = expected(m, first_visit, load);
  // Two normals per call, ok or not (rng-stream discipline: call sites
  // consume a fixed number of values so adding one never perturbs another).
  // A failed access uses neither, so it skips their math and only advances
  // the stream past the draws they would have taken.
  if (!out.ok) {
    rng.discard(2 * sim::Rng::kNormalDraws);
    return out;
  }
  const double plt_noise = rng.normal(1.0, 0.08);
  const double rtt_noise = rng.normal(0.0, 1.0);
  out.plt_s *= std::max(0.2, plt_noise);
  const double jitter_ms =
      static_cast<double>(world_.jitter_transpacific) * kMsPerUs * 0.5;
  out.rtt_ms = std::max(1e-3, out.rtt_ms + rtt_noise * jitter_ms);
  return out;
}

}  // namespace sc::population
