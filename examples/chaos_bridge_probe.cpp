// A Tor bridge-enumeration campaign as a fault script: the GFW's active
// probing surges, the bridge directory lands on the blocklist, border
// transit degrades while the scan runs, and confirmed egress IPs get banned.
//
// Run against the Tor baseline and the fleet-backed ScholarCloud world.
// Watch the detection signal differ: the fleet notices a banned egress from
// its own missed health probes (seconds), while the baseline only finds out
// when a user-visible fetch dies.
//
//   ./build/examples/chaos_bridge_probe
#include <cstdio>

#include "chaos/scripts.h"
#include "measure/chaos_scenario.h"
#include "measure/parallel.h"

using namespace sc;

namespace {

void printCell(const char* label, const measure::ChaosCellResult& r) {
  std::printf(
      "  %-22s %3d/%3d ok   impacted %d recovered %d unrecovered %d   "
      "detect %.2fs recover %.2fs (worst %.2fs)   lost %llu\n",
      label, r.successes, r.attempts, r.impacted, r.recovered, r.unrecovered,
      r.mean_detect_s, r.mean_recover_s, r.max_recover_s,
      static_cast<unsigned long long>(r.requests_lost));
}

}  // namespace

int main() {
  std::printf("Tor bridge probe wave — baseline vs fleet\n");
  std::printf("=========================================\n");
  const auto script = chaos::torBridgeProbeWave(10 * sim::kSecond);
  std::printf("script: %zu faults over ~%.0fs\n", script.size(),
              sim::toSeconds(script.events().back().at));

  measure::ChaosCellOptions tor;
  tor.method = measure::Method::kTor;
  tor.script = script;

  measure::ChaosCellOptions sc_cell;
  sc_cell.method = measure::Method::kScholarCloud;
  sc_cell.script = script;

  // One parallel sweep, like the bench runs it (order is still cell order).
  const std::vector<measure::ChaosCellOptions> cells{tor, sc_cell};
  const auto results = measure::runCells(cells, 0, measure::runChaosCell);
  std::printf("\nmethod                  outcome\n");
  printCell("tor", results[0]);
  printCell("scholarcloud + fleet", results[1]);

  std::printf("\nthe mean detect gap is the fleet's health prober doing its "
              "job before any user notices.\n");
  return 0;
}
