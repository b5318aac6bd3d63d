// Microbenchmarks (google-benchmark) of the hot primitives: the crypto the
// tunnels run on, the blinding codec, Tor cell handling, the HTTP message
// codec, a router's next-hop lookup and the simulator's event loop. Useful for spotting regressions that
// would silently stretch the figure benches' wall time.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "crypto/entropy.h"
#include "crypto/sha256.h"
#include "core/blinded_stream.h"
#include "http/message.h"
#include "http/origin.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "tor/cell.h"

namespace {

sc::Bytes makeData(std::size_t n) {
  sc::Bytes data(n);
  std::uint32_t x = 0x12345678;
  for (auto& b : data) {
    x = x * 1664525 + 1013904223;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return data;
}

void BM_Sha256(benchmark::State& state) {
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sc::crypto::sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Aes256CfbEncrypt(benchmark::State& state) {
  const sc::Bytes key(32, 0x42), iv(16, 0x24);
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  sc::crypto::AesCfbStream stream(key, iv);
  for (auto _ : state) benchmark::DoNotOptimize(stream.encrypt(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes256CfbEncrypt)->Arg(64)->Arg(1400)->Arg(16384);

void BM_BlindingByteMap(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"));
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(codec.blind(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlindingByteMap)->Arg(1400)->Arg(16384);

void BM_BlindingPrintable(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"), 0,
                                  sc::crypto::BlindingMode::kPrintable);
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(codec.blind(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlindingPrintable)->Arg(1400)->Arg(16384);

void BM_BlindingRotate(benchmark::State& state) {
  sc::crypto::BlindingCodec codec(sc::toBytes("secret"));
  std::uint32_t epoch = 0;
  for (auto _ : state) codec.rotate(++epoch);
}
BENCHMARK(BM_BlindingRotate);

void BM_ShannonEntropy(benchmark::State& state) {
  const sc::Bytes data = makeData(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sc::crypto::shannonEntropy(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShannonEntropy)->Arg(256)->Arg(1400);

void BM_TorCellRoundTrip(benchmark::State& state) {
  sc::tor::RelayPayload relay;
  relay.cmd = sc::tor::RelayCommand::kData;
  relay.stream_id = 7;
  relay.data = makeData(sc::tor::kRelayDataMax);
  sc::tor::CellReader reader;
  for (auto _ : state) {
    sc::tor::Cell cell;
    cell.circ_id = 1;
    cell.cmd = sc::tor::CellCommand::kRelay;
    cell.payload = sc::tor::encodeRelayPayload(relay);
    const sc::Bytes wire = sc::tor::encodeCell(cell);
    auto cells = reader.feed(wire);
    benchmark::DoNotOptimize(cells);
  }
}
BENCHMARK(BM_TorCellRoundTrip);

// One Scholar homepage response (the 6 KiB page every access fetches),
// parsed from its wire bytes in a single feed.
void BM_HttpResponseParse(benchmark::State& state) {
  sc::http::Response page;
  page.headers.set("Content-Type", "text/html; charset=utf-8");
  page.headers.set("Cache-Control", "private, max-age=0");
  page.headers.set("ETag", "\"scholar-home\"");
  page.headers.set("Server", "scholar");
  page.body = makeData(sc::http::PageSpec::scholarDefault().html_size);
  const sc::Bytes wire = page.serialize();
  for (auto _ : state) {
    sc::http::ResponseParser parser;
    auto messages = parser.feed(wire);
    benchmark::DoNotOptimize(messages.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_HttpResponseParse);

// A browser GET with eight request headers, serialized to wire bytes.
void BM_HttpRequestSerialize(benchmark::State& state) {
  sc::http::Request req;
  req.target.assign("/scholar?hl=en&q=internet+censorship");
  for (const auto& [name, value] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"Host", "scholar.google.com"},
           {"User-Agent", "Mozilla/5.0 (Windows NT 10.0; Win64; x64)"},
           {"Accept", "text/html,application/xhtml+xml"},
           {"Accept-Language", "zh-CN,zh;q=0.9,en;q=0.8"},
           {"Accept-Encoding", "gzip, deflate"},
           {"Connection", "keep-alive"},
           {"Cookie", "GSP=LM=1500000000:S=scholar"},
           {"Cache-Control", "max-age=0"}})
    req.headers.set(name, value);
  for (auto _ : state) {
    sc::Bytes wire = req.serialize();
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HttpRequestSerialize);

// The campus router of a 128-client cell, as the World builds it: one
// router-side interface address and one /32 host route per client, plus two
// shorter prefixes and the default route. Lookups alternate between a
// client (a /32 hit) and a US server (falls through to the default route),
// the two directions of every access.
void BM_NodeRoute(benchmark::State& state) {
  sc::sim::Simulator sim(1);
  sc::net::Network network(sim);
  sc::net::World world(network);
  std::vector<sc::net::Ipv4> destinations;
  for (int i = 0; i < 128; ++i) {
    const sc::net::Node& host = world.addCampusHost(std::to_string(i));
    destinations.push_back(host.primaryIp());
    destinations.push_back(
        sc::net::Ipv4(203, 0, 1, static_cast<std::uint8_t>(i + 1)));
  }
  sc::net::Node& router = world.campusRouter();
  sc::net::Link& uplink = *network.findLink("campus-cernet");
  router.addRoute(sc::net::Prefix{sc::net::Ipv4(10, 9, 0, 0), 16}, uplink);
  router.addRoute(sc::net::Prefix{sc::net::Ipv4(10, 0, 0, 0), 8}, uplink);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.nextHop(destinations[i]));
    i = (i + 1) % destinations.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeRoute);

// A delivery-sized closure ({Link*, Node*, u32} in the link hop; here two
// pointers and a counter) that re-arms itself with a varying delay.
struct ChurnHop {
  sc::sim::Simulator* sim;
  std::int64_t* remaining;
  std::uint32_t hop;
  void operator()() const {
    if (--*remaining > 0)
      sim->schedule(1 + hop % 7, ChurnHop{sim, remaining, hop + 1});
  }
};

// Event churn at a fixed queue depth: range(0) chains each keep one closure
// pending, so every fire and re-arm sifts through a heap of that size. 128
// is fig5_campaign's sim.max_queue_depth.
void BM_SimulatorEventChurn(benchmark::State& state) {
  constexpr std::int64_t kEvents = 10000;
  std::uint64_t executed = 0;
  for (auto _ : state) {
    sc::sim::Simulator sim(1);
    std::int64_t remaining = kEvents;
    for (std::int64_t c = 0; c < state.range(0); ++c)
      sim.schedule(1, ChurnHop{&sim, &remaining, static_cast<std::uint32_t>(c)});
    sim.run();
    benchmark::DoNotOptimize(remaining);
    executed += sim.eventsExecuted();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1)->Arg(128);

}  // namespace
