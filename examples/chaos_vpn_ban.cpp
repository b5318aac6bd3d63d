// The semester VPN ban, replayed as a fault script: a blocklist expansion
// wave, then a permanent DPI escalation that bans recognized VPN protocols
// outright, plus recurring egress-IP bans and a transpacific brown-out.
//
// Two deployments live through the same timeline: a native VPN (the
// pre-crackdown campus habit) and the fleet-backed ScholarCloud world. The
// point of the exercise — and of the paper's legal-avenue argument — is the
// last two lines: the VPN's faults never recover, the fleet's all do.
//
//   ./build/examples/chaos_vpn_ban
#include <cstdio>

#include "chaos/scripts.h"
#include "measure/chaos_scenario.h"

using namespace sc;

namespace {

void printTimeline(const chaos::ChaosScript& script) {
  std::printf("fault timeline (compressed day = 10s):\n");
  for (const auto& ev : script.events()) {
    std::printf("  %6.1fs  %-15s %-40s %s\n", sim::toSeconds(ev.at),
                chaos::faultKindName(ev.kind), ev.target.c_str(),
                ev.duration == 0
                    ? "permanent"
                    : "lifts after a while");
  }
}

void printCell(const char* label, const measure::ChaosCellResult& r) {
  std::printf("\n%s: %d/%d accesses ok\n", label, r.successes, r.attempts);
  for (const auto& rec : r.records) {
    if (!rec.impacted()) {
      std::printf("  #%d %-15s no user-visible impact\n", rec.id,
                  chaos::faultKindName(rec.kind));
      continue;
    }
    if (rec.recovered())
      std::printf("  #%d %-15s detected in %.2fs, recovered in %.2fs\n",
                  rec.id, chaos::faultKindName(rec.kind),
                  sim::toSeconds(rec.detectLatency()),
                  sim::toSeconds(rec.recoveryLatency()));
    else
      std::printf("  #%d %-15s detected in %.2fs, NEVER RECOVERED\n", rec.id,
                  chaos::faultKindName(rec.kind),
                  sim::toSeconds(rec.detectLatency()));
  }
  std::printf("  requests lost to outages: %llu\n",
              static_cast<unsigned long long>(r.requests_lost));
}

}  // namespace

int main() {
  std::printf("Semester VPN ban — one script, two deployments\n");
  std::printf("==============================================\n");
  const auto script = chaos::semesterVpnBan(10 * sim::kSecond);
  printTimeline(script);

  measure::ChaosCellOptions vpn;
  vpn.method = measure::Method::kNativeVpn;
  vpn.script = script;
  const auto vpn_result = measure::runChaosCell(vpn);
  printCell("native VPN", vpn_result);

  measure::ChaosCellOptions sc_cell;
  sc_cell.method = measure::Method::kScholarCloud;
  sc_cell.script = script;
  const auto sc_result = measure::runChaosCell(sc_cell);
  printCell("ScholarCloud + fleet", sc_result);

  std::printf("\nverdict: VPN left %d fault(s) unrecovered; the fleet left %d"
              " (respawned %llu endpoint(s) along the way)\n",
              vpn_result.unrecovered, sc_result.unrecovered,
              static_cast<unsigned long long>(sc_result.respawns));
  return 0;
}
