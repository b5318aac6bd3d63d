// Censorship lab: poke the GFW model one technique at a time and watch what
// each does to real traffic. A guided tour of src/gfw for people who want to
// understand the blocking mechanics rather than the end-to-end numbers.
//
//   ./build/examples/censorship_lab
#include <cstdio>

#include "dns/resolver.h"
#include "measure/testbed.h"

using namespace sc;
using measure::Method;
using measure::Testbed;

namespace {

void banner(const char* title) { std::printf("\n=== %s ===\n", title); }

// Experiment 1: watch DNS poisoning race the genuine answer.
void dnsPoisoningDemo(Testbed& tb) {
  banner("DNS poisoning");
  auto& node = tb.world().addCampusHost("lab-dns-client");
  transport::HostStack stack(node);
  dns::Resolver resolver(stack, tb.usDnsIp());

  for (const char* name : {"scholar.google.com", "www.amazon.com"}) {
    std::optional<net::Ipv4> answer;
    bool done = false;
    resolver.resolve(name, [&](std::optional<net::Ipv4> a) {
      done = true;
      answer = a;
    });
    tb.sim().runWhile([&] { return done; }, tb.sim().now() + sim::kMinute);
    std::printf("  %-22s -> %s%s\n", name,
                answer ? answer->str().c_str() : "(no answer)",
                answer && *answer == gfw::kPoisonAddress
                    ? "  <- forged sinkhole address"
                    : "");
  }
  std::printf("  queries poisoned so far: %llu\n",
              static_cast<unsigned long long>(tb.gfw().stats().dns_poisoned));
}

// Experiment 2: keyword filtering on plaintext HTTP.
void keywordFilterDemo(Testbed& tb) {
  banner("HTTP keyword filtering (RST injection)");
  auto& node = tb.world().addCampusHost("lab-http-client");
  transport::HostStack stack(node);

  // Target a NON-blocked IP (the amazon origin): the keyword filter fires on
  // the plaintext Host header alone, exactly like the real backbone filter.
  bool closed = false;
  auto sock = stack.tcpConnect(
      net::Endpoint{tb.amazonIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        std::printf("  TCP to a non-blocked US host, port 80: %s\n",
                    ok ? "connected" : "failed");
      });
  sock->setOnClose([&] { closed = true; });
  // The Host header names a blocked domain in the clear.
  sock->send(toBytes("GET / HTTP/1.1\r\nhost: scholar.google.com\r\n\r\n"));
  tb.sim().runWhile([&] { return closed; }, tb.sim().now() + sim::kMinute);
  std::printf("  connection %s; RSTs injected so far: %llu\n",
              closed ? "killed by forged RST" : "survived?!",
              static_cast<unsigned long long>(tb.gfw().stats().rst_injected));
}

// Experiment 3: entropy classification + active probing of a mute server.
void activeProbingDemo(Testbed& tb) {
  banner("entropy DPI + active probing (the Shadowsocks killer)");
  // Use the real ss-remote: push a Shadowsocks access through the DPI.
  std::printf("  (driving a Shadowsocks access so the DPI sees the flow)\n");
  bool ready = false;
  auto& client = tb.addClient(Method::kShadowsocks, 901,
                              [&](bool) { ready = true; });
  tb.sim().runWhile([&] { return ready; }, tb.sim().now() + sim::kMinute);
  bool done = false;
  client.browser->loadPage(Testbed::kScholarHost,
                           [&](http::PageLoadResult) { done = true; });
  tb.sim().runWhile([&] { return done; }, tb.sim().now() + 2 * sim::kMinute);
  // Give the prober time to fire (suspicion -> probe_delay -> verdict).
  tb.sim().runUntil(tb.sim().now() + 30 * sim::kSecond);

  const auto& stats = tb.gfw().stats();
  std::printf("  flows classified: %llu, probes launched: %llu, "
              "suspects confirmed: %llu\n",
              static_cast<unsigned long long>(stats.flows_classified),
              static_cast<unsigned long long>(stats.probes_launched),
              static_cast<unsigned long long>(stats.suspects_confirmed));
  for (const auto& [cls, n] : tb.gfw().flowClassCounts())
    std::printf("    class %-14s %llu flows\n", gfw::flowClassName(cls),
                static_cast<unsigned long long>(n));
}

// Experiment 4: the leniency path that keeps ScholarCloud alive.
void leniencyDemo(Testbed& tb) {
  banner("registered-ICP leniency (the legal avenue)");
  std::printf("  ScholarCloud domestic proxy ICP: %s\n",
              tb.domesticProxy().icpNumber().c_str());
  bool ready = false;
  auto& client = tb.addClient(Method::kScholarCloud, 902,
                              [&](bool) { ready = true; });
  tb.sim().runWhile([&] { return ready; }, tb.sim().now() + sim::kMinute);
  bool done = false;
  http::PageLoadResult result;
  client.browser->loadPage(Testbed::kScholarHost, [&](http::PageLoadResult r) {
    done = true;
    result = r;
  });
  tb.sim().runWhile([&] { return done; }, tb.sim().now() + 2 * sim::kMinute);
  std::printf("  page load through the blinded tunnel: %s (%.2fs)\n",
              result.ok ? "OK" : "FAILED", sim::toSeconds(result.plt));
  std::printf("  leniency grants: %llu (high-entropy flows excused because "
              "the domestic\n  endpoint is a registered ICP)\n",
              static_cast<unsigned long long>(
                  tb.gfw().stats().leniency_granted));

  std::printf("\n  ...now the registry revokes the registration:\n");
  tb.registry().revoke(tb.domesticProxy().icpNumber(), "lab demonstration");
  // New tunnels classified after revocation get disciplined + probed.
  tb.domesticProxy().rotateBlinding(2);
  done = false;
  client.browser->loadPage(Testbed::kScholarHost, [&](http::PageLoadResult r) {
    done = true;
    result = r;
  });
  tb.sim().runWhile([&] { return done; }, tb.sim().now() + 2 * sim::kMinute);
  std::printf("  post-revocation load: %s — and future tunnel flows face the "
              "unknown-protocol discipline\n",
              result.ok ? "still OK (existing flow state)" : "failed");
}

}  // namespace

int main() {
  std::printf("GFW censorship lab — one technique at a time\n");
  Testbed tb;
  dnsPoisoningDemo(tb);
  keywordFilterDemo(tb);
  activeProbingDemo(tb);
  leniencyDemo(tb);
  std::printf("\nTotals: %llu packets inspected, %llu dropped by discipline, "
              "%llu IP-blocked\n",
              static_cast<unsigned long long>(tb.gfw().stats().packets_inspected),
              static_cast<unsigned long long>(tb.gfw().stats().disciplined_drops),
              static_cast<unsigned long long>(tb.gfw().stats().ip_blocked));
  return 0;
}
