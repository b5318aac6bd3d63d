// Deep packet inspection: the per-flow protocol verdict. Everything here
// reads only bytes a real wire tap would see.
//
// The GFW runs one verdict path: dpi::PayloadScanner walks a first payload
// once, dpi::Engine::analyze folds its automaton hits into flags, and
// `classifyScan` turns the two into a FlowClass. Tests pin that same path
// with a golden verdict-stream hash (test_dpi).
#pragma once

#include "gfw/dpi/engine.h"
#include "gfw/dpi/scanner.h"
#include "net/packet.h"

namespace sc::gfw {

enum class FlowClass : std::uint8_t {
  kUnknown,
  kPlainHttp,
  kTls,            // ordinary TLS (browser fingerprint)
  kTorTls,         // TLS whose fingerprint matches the Tor stack / meek
  kVpnPptp,
  kVpnL2tp,
  kOpenVpn,
  kHighEntropy,    // random-looking bytes with no recognized framing
  kTextLike,       // printable, unrecognized (blinded-printable lands here)
};

const char* flowClassName(FlowClass cls);

struct ClassifierThresholds {
  double entropy_threshold_bits = 7.0;
  double printable_benign_fraction = 0.9;
  std::size_t min_classify_bytes = 48;
};

// Classifies the first client->server payload of a TCP flow. Every input
// is read off one completed PayloadScanner pass (`scan`) and its engine
// flags: the ClientHello and HTTP structure, the Tor/meek fingerprint flag,
// and the printable and entropy statistics.
FlowClass classifyScan(const dpi::ScanResult& scan,
                       const dpi::Engine::Flags& flags, const net::Packet& pkt,
                       const ClassifierThresholds& thresholds);

// Classifies a non-TCP packet (GRE/ESP/UDP protocol fingerprints).
FlowClass classifyNonTcp(const net::Packet& pkt);

}  // namespace sc::gfw
