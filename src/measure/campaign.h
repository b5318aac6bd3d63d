// Measurement campaigns — the §4.2 methodology, automated:
//   "we automate the web browser to send HTTP requests for the home page of
//    Google Scholar every 60 sec ... each experiment lasts for a whole day."
//
// runAccessCampaign drives one client of one method through n accesses and
// collects everything Figs. 5 and 6 need. runScalability reproduces Fig. 7's
// concurrent-client sweep against fresh testbeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/stats.h"
#include "measure/testbed.h"
#include "net/link.h"
#include "util/hash.h"

namespace sc::measure {

struct CampaignOptions {
  int accesses = 120;                     // scaled-down "day" by default
  sim::Time interval = 60 * sim::kSecond;  // paper cadence
  std::string host = Testbed::kScholarHost;
  bool measure_rtt = true;                 // interleave RTT probes
  // Clear browser caches before every access: each load transfers the full
  // page, matching the per-access transfer sizes Fig. 6a reports.
  bool cold_cache = false;
};

struct CampaignResult {
  Method method = Method::kDirect;
  bool setup_ok = false;
  int successes = 0;
  int failures = 0;
  Summary plt_first_s;   // first-visit page load times (seconds)
  Summary plt_sub_s;     // subsequent page load times (seconds)
  Summary rtt_ms;        // RTT probes (milliseconds)
  double plr_pct = 0;    // packet loss rate over the campaign (%)
  double traffic_kb_per_access = 0;  // client access-link bytes per access
  std::uint64_t client_bytes = 0;
  int connections_estimate = 0;  // rough per-access connection count
};

CampaignResult runAccessCampaign(Testbed& testbed, Method method,
                                 std::uint32_t tag,
                                 CampaignOptions options = {});

struct ScalabilityPoint {
  int clients = 0;
  double plt_mean_s = 0;
  double plt_p95_s = 0;
  int failures = 0;
};

struct ScalabilityOptions {
  std::vector<int> client_counts = {5, 15, 30, 60, 90, 120, 150, 180};
  int accesses_per_client = 6;
  // Fresh session per access (caches/pools cleared): each client-access
  // brings the full connection + auth work to the server, which is what the
  // paper's concurrency sweep stresses.
  sim::Time think_time = 10 * sim::kSecond;  // between a client's accesses
  std::uint64_t seed = 42;
};

// JSONL exports of one Fig. 7 cell's hub, captured before its testbed dies,
// and a hash of its border wire.
struct ScalabilityExports {
  std::string metrics_jsonl;
  std::string trace_jsonl;
  // FNV-1a over every packet the GFW lets onto the border link, in order:
  // direction, and for TCP seq, ack and flags, then the payload. It pins
  // what neither JSONL carries (TCP flags, segment boundaries).
  std::uint64_t border_wire_hash = 0;
};

// Hashes the border wire for ScalabilityExports::border_wire_hash and the
// per-method goldens. It only reads: every packet passes on unchanged.
struct BorderWireTap final : net::PacketFilter {
  Fnv1a wire;

  Verdict onPacket(net::Packet& pkt, net::Direction dir, net::Link&) override;
};

// One cell of the Fig. 7 sweep: a fresh testbed running `n_clients`
// concurrent clients. Fully determined by (method, n_clients, options.seed)
// — the independent unit that ParallelRunner fans across workers. With
// `exports`, the cell also traces (observation never perturbs it) and hands
// back its metrics and trace.
ScalabilityPoint runScalabilityPoint(Method method, int n_clients,
                                     const ScalabilityOptions& options,
                                     ScalabilityExports* exports = nullptr);

// The Fig. 7 sweep: one fresh testbed per point (cold caches except each
// client's own), fanned across `threads` workers (0 = one per hardware
// thread). Results arrive in options.client_counts order, byte-identical for
// any thread count.
std::vector<ScalabilityPoint> runScalability(Method method,
                                             ScalabilityOptions options = {},
                                             unsigned threads = 1);

}  // namespace sc::measure
