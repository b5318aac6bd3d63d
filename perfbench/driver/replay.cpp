#include "replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "fleet/cache.h"
#include "gfw/classifier.h"
#include "gfw/dpi/engine.h"
#include "http/message.h"
#include "http/origin.h"
#include "measure/calibration.h"
#include "net/packet.h"
#include "population/flow_model.h"
#include "population/population.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

namespace net = sc::net;
using sc::Bytes;
using Clock = std::chrono::steady_clock;

// Repeats `pass` for `budget_s` seconds (at least three times) and returns
// the fastest pass in nanoseconds; the slower ones were disturbed.
template <typename Pass>
double fastestPassNs(Pass&& pass, double budget_s) {
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             budget_s) {
    const auto t = Clock::now();
    pass();
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t)
                     .count());
  }
  return *std::min_element(ns.begin(), ns.end());
}

// Stand-in border mix for workloads whose packets the benchmark cannot tap:
// a plaintext GET and random payloads from the smallest size to a full MSS.
std::vector<net::Packet> syntheticPackets(std::uint64_t seed) {
  sc::sim::Rng rng(seed);
  const net::Ipv4 client(10, 1, 0, 2);
  const net::Ipv4 server(203, 0, 1, 2);
  net::TcpFlags data;
  data.ack = true;
  data.psh = true;
  sc::http::Request get;
  get.headers.set("host", "scholar.google.com");
  std::vector<net::Packet> out;
  out.push_back(net::makeTcp(client, server, 40000, 80, data, 1, 1,
                             get.serialize()));
  for (const std::size_t size : {1, 64, 517, 1448}) {
    Bytes payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.nextU64());
    out.push_back(
        net::makeTcp(client, server, 40001, 443, data, 1, 1, payload));
  }
  return out;
}

sc::http::Response scholarPage() {
  sc::http::Response page;
  page.headers.set("content-type", "text/html; charset=utf-8");
  page.headers.set("cache-control", "private, max-age=0");
  page.headers.set("etag", "\"scholar-home\"");
  page.headers.set("server", "scholar");
  page.body.assign(sc::http::PageSpec::scholarDefault().html_size,
                   std::uint8_t{'s'});
  return page;
}

}  // namespace

LayerCosts measureLayers(const Observation& obs, std::uint64_t seed,
                         double budget_s) {
  LayerCosts c;
  const double each_s = budget_s / 9;
  const std::vector<net::Packet> packets =
      obs.captured.empty() ? syntheticPackets(seed) : obs.captured;

  // net: the tunnel encap/decap codec, one round trip per packet.
  {
    Bytes scratch;
    std::uint64_t round_trips = 0;
    std::uint64_t expected = 0;
    const double pass_ns = fastestPassNs(
        [&] {
          for (const net::Packet& pkt : packets) {
            net::serializePacketInto(pkt, scratch);
            const auto back = net::parsePacket(std::move(scratch));
            scratch.clear();
            if (back.has_value() && back->payload == pkt.payload)
              ++round_trips;
          }
          expected += packets.size();
        },
        each_s);
    c.codec_ns = pass_ns / static_cast<double>(packets.size());
    c.ok = c.ok && round_trips == expected;
  }

  // crypto: every non-empty border payload, smallest sizes included.
  std::vector<Bytes> payloads;
  std::size_t payload_bytes = 0;
  for (const net::Packet& pkt : packets) {
    if (pkt.payload.empty()) continue;
    payloads.push_back(pkt.payload);
    payload_bytes += pkt.payload.size();
  }
  {
    const std::array<std::uint8_t, 32> key{1, 2, 3, 4, 5, 6, 7, 8};
    const std::array<std::uint8_t, 16> iv{9, 10, 11, 12};
    sc::crypto::AesCfbStream stream(key, iv);
    c.aes_cfb_ns_per_byte =
        fastestPassNs(
            [&] {
              for (Bytes& p : payloads) stream.encryptInPlace(p);
            },
            each_s) /
        static_cast<double>(payload_bytes);
  }
  {
    const sc::crypto::BlindingCodec codec(
        sc::toBytes("scholarcloud-operator-secret"));
    std::size_t blinded = 0;
    std::size_t expected = 0;
    c.blinding_ns_per_byte =
        fastestPassNs(
            [&] {
              for (const Bytes& p : payloads) blinded += codec.blind(p).size();
              expected += payload_bytes;
            },
            each_s) /
        static_cast<double>(payload_bytes);
    c.ok = c.ok && blinded == expected;
  }

  // gfw: the compiled DPI pass the GFW runs on a flow's first payloads,
  // and the automaton rebuild a domain-blocklist write triggers.
  {
    sc::gfw::dpi::Engine engine;
    engine.compile(obs.domain_patterns);
    const sc::gfw::GfwConfig cfg = sc::measure::calibratedGfw();
    sc::gfw::ClassifierThresholds thresholds;
    thresholds.entropy_threshold_bits = cfg.entropy_threshold_bits;
    thresholds.printable_benign_fraction = cfg.printable_benign_fraction;
    thresholds.min_classify_bytes = cfg.min_classify_bytes;
    std::vector<const net::Packet*> tcp;
    for (const net::Packet& pkt : packets)
      if (pkt.isTcp() && !pkt.payload.empty()) tcp.push_back(&pkt);
    const sc::gfw::dpi::PayloadScanner scanner;
    sc::gfw::dpi::ScanResult scan;
    std::uint64_t verdicts = 0;
    const double pass_ns = fastestPassNs(
        [&] {
          for (const net::Packet* pkt : tcp) {
            scanner.scan(pkt->payload, &engine.automaton(), scan);
            const auto flags = engine.analyze(scan, pkt->payload);
            verdicts += static_cast<std::uint64_t>(
                sc::gfw::classifyScan(scan, flags, *pkt, thresholds));
          }
        },
        each_s);
    c.scan_ns = tcp.empty() ? 0 : pass_ns / static_cast<double>(tcp.size());
    c.ok = c.ok && (tcp.empty() || verdicts > 0);

    sc::gfw::dpi::Engine rebuilt;
    c.recompile_ms =
        fastestPassNs([&] { rebuilt.compile(obs.domain_patterns); }, each_s) /
        1e6;
    c.ok = c.ok && rebuilt.compiled();
  }

  // http: parsing the scholar page response and setting request headers.
  {
    const sc::http::Response page = scholarPage();
    const Bytes wire = page.serialize();
    constexpr int kPages = 16;
    sc::http::ResponseParser parser;
    std::uint64_t parsed = 0;
    std::uint64_t expected = 0;
    c.parse_ns = fastestPassNs(
                     [&] {
                       for (int i = 0; i < kPages; ++i) {
                         const auto msgs = parser.feed(wire);
                         if (msgs.size() == 1 &&
                             msgs.front().body.size() == page.body.size())
                           ++parsed;
                       }
                       expected += kPages;
                     },
                     each_s) /
                 kPages;
    c.ok = c.ok && parsed == expected && !parser.malformed();

    const std::vector<std::pair<std::string, std::string>> request_headers = {
        {"Host", "scholar.google.com"},
        {"User-Agent", "Mozilla/5.0 (Windows NT 10.0; Win64; x64)"},
        {"Accept", "text/html,application/xhtml+xml"},
        {"Accept-Language", "zh-CN,zh;q=0.9,en;q=0.8"},
        {"Accept-Encoding", "gzip, deflate"},
        {"Connection", "keep-alive"},
        {"Cookie", "GSP=LM=1500000000:S=scholar"},
        {"Cache-Control", "max-age=0"},
    };
    std::size_t kept = 0;
    c.headers_set_ns = fastestPassNs(
                           [&] {
                             sc::http::Headers headers;
                             for (const auto& [k, v] : request_headers)
                               headers.set(k, v);
                             kept = headers.all().size();
                           },
                           each_s) /
                       static_cast<double>(request_headers.size());
    c.ok = c.ok && kept == request_headers.size();
  }

  // fleet + population: the population's Zipf query keys through the shared
  // cache, and its arrivals' method mix through the flow model.
  {
    sc::population::PopulationOptions popts;
    popts.seed = seed;
    const sc::population::PopulationModel model(popts);
    sc::sim::Rng rng(seed);
    constexpr std::size_t kArrivals = 4096;
    std::vector<std::string> keys;
    std::vector<std::pair<sc::population::Method, bool>> arrivals;
    for (std::size_t i = 0; i < kArrivals; ++i) {
      const std::uint64_t user =
          model.sampleUser(i % model.classes().size(), rng);
      arrivals.emplace_back(model.methodOf(user), i % 4 == 0);
      keys.push_back(sc::population::PopulationModel::queryCacheKey(
          model.sampleQueryRank(rng)));
    }

    sc::sim::Simulator clock(seed);  // the cache's TTL clock; never run
    sc::fleet::ShardedLruCache cache(clock, sc::fleet::CacheOptions{});
    sc::http::Response resp;
    resp.body.assign(2048, std::uint8_t{'p'});
    std::uint64_t lookups = 0;
    c.cache_lookup_ns = fastestPassNs(
                            [&] {
                              for (const std::string& key : keys)
                                if (!cache.lookup(key).has_value())
                                  cache.insert(key, resp);
                              lookups += keys.size();
                            },
                            each_s) /
                        static_cast<double>(keys.size());
    c.ok = c.ok && cache.hits() + cache.misses() == lookups;

    const sc::population::FlowModel flow(sc::measure::calibratedWorld(),
                                         nullptr,
                                         sc::measure::calibratedGfw());
    sc::sim::Rng draws(seed + 1);
    std::uint64_t ok_samples = 0;
    c.sample_ns = fastestPassNs(
                      [&] {
                        for (const auto& [method, first] : arrivals)
                          ok_samples +=
                              flow.sample(method, first, {}, draws).ok ? 1 : 0;
                      },
                      each_s) /
                  static_cast<double>(arrivals.size());
    c.ok = c.ok && ok_samples > 0;
  }
  return c;
}

}  // namespace perfbench
