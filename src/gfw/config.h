// GFW configuration: which blocking techniques are armed and how hard each
// flow class is disciplined. Defaults reflect the paper's Feb–Apr 2017
// measurement window; ablation benches flip individual switches (e.g. the
// 2012–2015 VPN-blocking era, or a GFW that hard-blocks unknown protocols).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace sc::gfw {

struct GfwConfig {
  // ---- technique switches ----
  bool ip_blocking = true;
  bool dns_poisoning = true;
  bool keyword_filtering = true;     // plaintext HTTP Host/URL scan
  bool tls_sni_filtering = true;     // block by server name
  bool protocol_fingerprinting = true;  // PPTP/L2TP/OpenVPN/Tor recognition
  bool entropy_classification = true;   // Shadowsocks-style detection
  bool active_probing = true;

  // ---- policy knobs ----
  // Post-2015 policy: recognized VPN protocols pass (registered-VPN era).
  // Flip to true for the 2012–2015 era where VPNs were extensively blocked.
  bool block_vpn_protocols = false;
  // Flows whose China-side endpoint is a registered ICP get leniency — the
  // paper's §2/§3 argument for why a legalized service survives — unless
  // this is set: then *any* unclassifiable high-entropy flow is throttled,
  // even registered ones (a hypothetical future GFW; used in ablations).
  bool throttle_all_unknown = false;

  // ---- per-class disciplines (per-packet drop probability) ----
  double tor_discipline = 0.022;         // ~4.4% RTT loss for Tor/meek flows
  double shadowsocks_discipline = 0.0038;  // ~0.77% RTT loss once confirmed
  double unknown_discipline = 0.0038;    // unregistered unknown protocols
  double vpn_block_discipline = 0.25;    // when block_vpn_protocols is on

  // ---- classifier thresholds ----
  double entropy_threshold_bits = 7.0;   // bits/byte over the first payload
  double printable_benign_fraction = 0.9;  // text-like flows are not "random"
  std::size_t min_classify_bytes = 48;

  // ---- active probing ----
  sim::Time probe_delay = 12 * sim::kSecond;   // suspicion -> probe launch
  sim::Time suspect_block_ttl = 2 * sim::kHour;
};

}  // namespace sc::gfw
