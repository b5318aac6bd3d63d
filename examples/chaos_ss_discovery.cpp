// Shadowsocks endpoint discovery as a fault script: a probing surge plus an
// entropy-discipline ramp, repeated egress-IP bans as servers get confirmed,
// and one machine crash mid-campaign ("fleet:any" — the provider reboots a
// box under you).
//
// The crash fault is the interesting one for the fleet world: the tunnels
// sever, the health prober's backoff chain notices, and the respawn loop
// brings a fresh endpoint up — all visible in the per-fault records below.
//
//   ./build/examples/chaos_ss_discovery
#include <cstdio>

#include "chaos/scripts.h"
#include "measure/chaos_scenario.h"

using namespace sc;

int main() {
  std::printf("Shadowsocks endpoint discovery — crash and respawn\n");
  std::printf("==================================================\n");

  measure::ChaosCellOptions cell;
  cell.method = measure::Method::kScholarCloud;
  cell.fleet_size = 3;
  cell.script = chaos::ssEndpointDiscovery(10 * sim::kSecond);
  const auto r = measure::runChaosCell(cell);

  std::printf("accesses: %d/%d ok (%.1f%%)\n", r.successes, r.attempts,
              100.0 * r.success_ratio);
  std::printf("fault records:\n");
  for (const auto& rec : r.records) {
    std::printf("  %6.1fs  #%d %-15s %-12s ", sim::toSeconds(rec.began),
                rec.id, chaos::faultKindName(rec.kind), rec.target.c_str());
    if (rec.unhandled)
      std::printf("unhandled in this world\n");
    else if (!rec.impacted())
      std::printf("absorbed (no user-visible impact)\n");
    else if (rec.recovered())
      std::printf("detect %.2fs, recover %.2fs, %llu request(s) lost\n",
                  sim::toSeconds(rec.detectLatency()),
                  sim::toSeconds(rec.recoveryLatency()),
                  static_cast<unsigned long long>(rec.requests_lost));
    else
      std::printf("never recovered\n");
  }
  std::printf("fleet respawned %llu endpoint(s); %d fault(s) left "
              "unrecovered\n",
              static_cast<unsigned long long>(r.respawns), r.unrecovered);
  return r.unrecovered == 0 ? 0 : 1;
}
