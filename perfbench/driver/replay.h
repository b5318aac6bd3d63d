// Per-layer costs measured from outside the simulation: each one times a
// public function of one layer over inputs a traced run captured (border
// packets, the GFW's domain blocklist) or generated from the seed (the
// population's key and method streams).
#pragma once

#include <cstdint>

#include "workloads.h"

namespace perfbench {

struct LayerCosts {
  double codec_ns = 0;  // serializePacketInto + parsePacket(Bytes&&)
  double aes_cfb_ns_per_byte = 0;   // AesCfbStream::encryptInPlace
  double blinding_ns_per_byte = 0;  // BlindingCodec::blind
  double scan_ns = 0;       // PayloadScanner::scan + analyze + classifyScan
  double recompile_ms = 0;  // dpi::Engine::compile
  double parse_ns = 0;      // ResponseParser::feed, one scholar page
  double headers_set_ns = 0;   // Headers::set
  double cache_lookup_ns = 0;  // ShardedLruCache lookup (+ insert on miss)
  double sample_ns = 0;        // FlowModel::sample
  // Every replayed call returned what it should (packets round-trip, the
  // page parses whole, cache hits + misses add up).
  bool ok = true;
};

// Times each layer for about `budget_s` seconds. Workloads whose border
// traffic was not captured replay a small synthetic packet mix instead.
LayerCosts measureLayers(const Observation& obs, std::uint64_t seed,
                         double budget_s);

}  // namespace perfbench
