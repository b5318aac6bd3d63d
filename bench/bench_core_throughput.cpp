// Core hot-path throughput, the numbers behind the event-loop rework:
//
//   1. events/sec through sim::Simulator (inline callbacks in a body slab,
//      parity-generation cancellation, flat 4-ary heap of 16-byte
//      {at, seq << 24 | slot} keys) on a schedule/cancel/re-arm workload;
//   2. packets/sec across a two-node link (the stash-based delivery path);
//   3. serial vs parallel campaign wall clock over identical cells, plus a
//      check that both produce identical results.
//
// Writes BENCH_core.json to the working directory. Env knobs (CI smoke
// passes tiny values):
//   SC_BENCH_EVENTS         events per loop run       (default 2000000)
//   SC_BENCH_PACKETS        packets across the link   (default 200000)
//   SC_BENCH_SCALE_CLIENTS  campaign cell sizes       (default 5,10,15,20)
//   SC_BENCH_THREADS        parallel workers          (default hardware)
#include <chrono>
#include <functional>

#include "bench_common.h"
#include "measure/parallel.h"

namespace {

// The simulator's hot pattern: concurrent chains where each step re-arms a
// timeout (cancel + schedule, like a TCP RTO) and schedules its successor.
double eventsPerSec(long long target, std::uint64_t& executed) {
  constexpr int kChains = 64;
  sc::sim::Simulator sim;
  std::vector<sc::sim::EventHandle> timeouts(kChains);
  long long fired = 0;
  std::function<void(int)> step = [&](int c) {
    ++fired;
    timeouts[static_cast<std::size_t>(c)].cancel();
    timeouts[static_cast<std::size_t>(c)] = sim.schedule(1000, [] {});
    if (fired + kChains <= target) sim.schedule(1, [&step, c] { step(c); });
  };
  // sclint:allow(det-wallclock) wall-clock throughput is what this bench reports
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kChains; ++c) sim.schedule(1, [&step, c] { step(c); });
  sim.run();
  const double elapsed = sc::bench::secondsSince(start);
  executed = sim.eventsExecuted();
  return static_cast<double>(executed) / elapsed;
}

// Ping-pong across one link with a window of packets in flight: every
// delivery exercises the stash + inline-closure path.
double packetsPerSec(long long target) {
  sc::sim::Simulator sim;
  sc::net::Network net(sim);
  auto& a = net.addNode("a");
  auto& b = net.addNode("b");
  sc::net::LinkParams params;
  params.prop_delay = 10 * sc::sim::kMicrosecond;
  params.bandwidth_bps = 1e12;
  params.max_queue_delay = 3600 * sc::sim::kSecond;  // never tail-drop
  auto& link = net.addLink(a, b, params, "wire");
  const sc::net::Ipv4 ip_a(10, 0, 0, 1), ip_b(10, 0, 0, 2);
  a.attach(link, ip_a);
  b.attach(link, ip_b);
  a.setDefaultRoute(link);
  b.setDefaultRoute(link);

  long long delivered = 0;
  const auto bounce = [&](sc::net::Node& self, sc::net::Ipv4 self_ip,
                          sc::net::Ipv4 peer_ip) {
    return [&, self_ip, peer_ip](sc::net::Packet&& pkt) {
      ++delivered;
      if (delivered + 64 <= target) {
        pkt.src = self_ip;
        pkt.dst = peer_ip;
        pkt.id = 0;  // re-originate
        self.send(std::move(pkt));
      }
    };
  };
  a.setLocalHandler(bounce(a, ip_a, ip_b));
  b.setLocalHandler(bounce(b, ip_b, ip_a));

  // sclint:allow(det-wallclock) wall-clock throughput is what this bench reports
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < 64; ++w) {
    a.send(sc::net::makeUdp(ip_a, ip_b, 1000, 2000,
                            sc::Bytes(256, static_cast<std::uint8_t>(w))));
  }
  sim.run();
  return static_cast<double>(delivered) / sc::bench::secondsSince(start);
}

}  // namespace

int main() {
  using namespace sc;
  const long long n_events = bench::intFromEnv("SC_BENCH_EVENTS", 2000000);
  const long long n_packets = bench::intFromEnv("SC_BENCH_PACKETS", 200000);
  std::vector<int> cells = bench::parseIntList("SC_BENCH_SCALE_CLIENTS");
  if (cells.empty()) cells = {5, 10, 15, 20};
  const unsigned threads_req = bench::threadsFromEnv();

  std::printf("Core throughput — event loop, link delivery, parallel sweep\n");

  std::uint64_t executed = 0;
  const double eps = eventsPerSec(n_events, executed);
  std::printf("  events/sec: %.3g (%llu fired)\n", eps,
              static_cast<unsigned long long>(executed));

  const double pps = packetsPerSec(n_packets);
  std::printf("  packets/sec: %.3g\n", pps);

  measure::ScalabilityOptions sopts;
  sopts.client_counts = cells;
  // sclint:allow(det-wallclock) wall-clock throughput is what this bench reports
  const auto serial_start = std::chrono::steady_clock::now();
  const auto serial =
      measure::runScalability(measure::Method::kScholarCloud, sopts);
  const double serial_s = bench::secondsSince(serial_start);
  const measure::ParallelRunner runner(threads_req);
  // sclint:allow(det-wallclock) wall-clock throughput is what this bench reports
  const auto par_start = std::chrono::steady_clock::now();
  const auto parallel = measure::runScalability(
      measure::Method::kScholarCloud, sopts, runner.threads());
  const double parallel_s = bench::secondsSince(par_start);
  const bool match = bench::samePoints(serial, parallel);
  std::printf(
      "  campaign: serial %.2fs, parallel %.2fs on %u threads (%.2fx), "
      "results %s\n",
      serial_s, parallel_s, runner.threads(),
      parallel_s > 0 ? serial_s / parallel_s : 0, match ? "match" : "DIFFER");

  std::FILE* out = std::fopen("BENCH_core.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_core.json\n");
    return 1;
  }
  bench::JsonWriter jw(out);
  jw.beginObject();
  jw.beginObject("events")
      .field("requested", n_events)
      .field("fired", executed)
      .field("events_per_sec", eps)
      .endObject();
  jw.beginObject("packets")
      .field("requested", n_packets)
      .field("packets_per_sec", pps)
      .endObject();
  jw.beginObject("campaign");
  jw.beginArray("client_counts");
  for (const int c : cells) jw.element(c);
  jw.endArray();
  jw.field("threads", runner.threads())
      .field("serial_seconds", serial_s)
      .field("parallel_seconds", parallel_s)
      .field("speedup", parallel_s > 0 ? serial_s / parallel_s : 0)
      .field("parallel_matches_serial", match)
      .endObject();
  jw.endObject();
  std::fclose(out);
  std::printf("  -> BENCH_core.json\n");
  return match ? 0 : 1;
}
