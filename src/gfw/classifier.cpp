#include "gfw/classifier.h"

#include <algorithm>
#include <cmath>

namespace sc::gfw {

const char* flowClassName(FlowClass cls) {
  switch (cls) {
    case FlowClass::kUnknown: return "unknown";
    case FlowClass::kPlainHttp: return "http";
    case FlowClass::kTls: return "tls";
    case FlowClass::kTorTls: return "tor-tls";
    case FlowClass::kVpnPptp: return "pptp";
    case FlowClass::kVpnL2tp: return "l2tp";
    case FlowClass::kOpenVpn: return "openvpn";
    case FlowClass::kHighEntropy: return "high-entropy";
    case FlowClass::kTextLike: return "text-like";
  }
  return "?";
}

FlowClass classifyScan(const dpi::ScanResult& scan,
                       const dpi::Engine::Flags& flags, const net::Packet& pkt,
                       const ClassifierThresholds& thresholds) {
  if (scan.size == 0) return FlowClass::kUnknown;

  if (scan.has_client_hello)
    return flags.tor_fingerprint ? FlowClass::kTorTls : FlowClass::kTls;
  if (scan.has_http_request) return FlowClass::kPlainHttp;
  if (pkt.tcp().dst_port == 1723) return FlowClass::kVpnPptp;
  if (pkt.tcp().dst_port == 1194 && scan.first_byte == 0x38)
    return FlowClass::kOpenVpn;

  if (scan.size < thresholds.min_classify_bytes) return FlowClass::kUnknown;

  if (scan.printableFraction() >= thresholds.printable_benign_fraction)
    return FlowClass::kTextLike;

  // A short buffer cannot reach 8 bits/byte even if perfectly random:
  // entropy is capped at log2(n). Scale the threshold accordingly so the
  // classifier catches Shadowsocks' small first packet (IV + target header).
  const double cap = std::min(8.0, std::log2(static_cast<double>(scan.size)));
  if (scan.entropy() >= thresholds.entropy_threshold_bits * cap / 8.0)
    return FlowClass::kHighEntropy;

  return FlowClass::kUnknown;
}

FlowClass classifyNonTcp(const net::Packet& pkt) {
  switch (pkt.proto) {
    case net::IpProto::kGre:
      return FlowClass::kVpnPptp;
    case net::IpProto::kEsp:
      return FlowClass::kVpnL2tp;
    case net::IpProto::kUdp:
      if (pkt.udp().dst_port == 1701 || pkt.udp().src_port == 1701)
        return FlowClass::kVpnL2tp;
      if ((pkt.udp().dst_port == 1194 || pkt.udp().src_port == 1194) &&
          !pkt.payload.empty() && pkt.payload[0] == 0x38)
        return FlowClass::kOpenVpn;
      return FlowClass::kUnknown;
    default:
      return FlowClass::kUnknown;
  }
}

}  // namespace sc::gfw
