// GFW border hot path, timed on the verdict path the simulator runs:
//
//   1. packets/sec through the inspector pipeline — one PayloadScanner
//      pass, the automaton prefilter, the suffix-index confirm — over a
//      fixed 16-payload traffic corpus;
//   2. equivalence: one pass over the corpus is FNV-hashed as a (class,
//      rst) verdict stream and compared with a golden constant;
//   3. blocklist churn: mutation waves with the lazy recompile discipline,
//      reporting per-recompile cost and the throughput retained vs steady
//      state;
//   4. serial vs parallel campaign sweep over identical cells (the full
//      simulator, GFW inspectors included), checked for identical results.
//
// Writes BENCH_gfw.json to the working directory; exits non-zero when either
// equivalence check fails. Env knobs (CI smoke passes tiny values):
//   SC_BENCH_GFW_PACKETS   packets per timed inspector run  (default 200000)
//   SC_BENCH_GFW_DOMAINS   filler domains in the blocklist  (default 512 —
//                          small next to the real GFW's list; the automaton
//                          and suffix index grow with it)
//   SC_BENCH_GFW_WAVES     blocklist mutation waves         (default 16)
//   SC_BENCH_SCALE_CLIENTS campaign cell sizes              (default 4,8,12)
//   SC_BENCH_THREADS       parallel workers                 (default hardware)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gfw/blocklist.h"
#include "gfw/classifier.h"
#include "gfw/dpi/engine.h"
#include "gfw/dpi/scanner.h"
#include "measure/parallel.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace {

using sc::Bytes;
using sc::gfw::ClassifierThresholds;
using sc::gfw::FlowClass;

// The inspector, mirroring Gfw::classifyFlow's TCP branch: one scan,
// field-scoped prefilter flags, exact-index confirm only on candidates.
struct CompiledInspector {
  sc::gfw::DomainBlocklist domains;
  sc::gfw::dpi::Engine engine;
  sc::gfw::dpi::PayloadScanner scanner;
  sc::gfw::dpi::ScanResult scan;
  std::uint64_t dpi_version = ~std::uint64_t{0};
  std::uint64_t recompiles = 0;
  double recompile_seconds = 0;

  void refresh() {
    if (engine.compiled() && dpi_version == domains.version()) return;
    // sclint:allow(det-wallclock) recompile cost is a wall-clock measurement of the host
    const auto start = std::chrono::steady_clock::now();
    engine.compile(domains.patterns());
    recompile_seconds += sc::bench::secondsSince(start);
    ++recompiles;
    dpi_version = domains.version();
  }

  std::uint16_t verdict(const sc::net::Packet& pkt,
                        const ClassifierThresholds& thresholds) {
    refresh();
    scanner.scan(pkt.payload, &engine.automaton(), scan);
    const auto flags = engine.analyze(scan, pkt.payload);
    const FlowClass cls = sc::gfw::classifyScan(scan, flags, pkt, thresholds);
    bool rst = false;
    if (cls == FlowClass::kPlainHttp) {
      if (flags.host_candidate && domains.isBlocked(scan.http_host)) rst = true;
    } else if (cls == FlowClass::kTls || cls == FlowClass::kTorTls) {
      if (flags.sni_candidate && domains.isBlocked(scan.sni)) rst = true;
    }
    return static_cast<std::uint16_t>(static_cast<std::uint16_t>(cls) << 1 |
                                      static_cast<std::uint16_t>(rst));
  }
};

// Deterministic traffic corpus: the border mix the inspectors see — HTTP in
// the clear (benign, blocked, absolute-URI), TLS ClientHellos (benign SNI,
// blocked SNI, Tor fingerprint), ciphertext first packets, plain text, VPN
// protocol ports, and shorties below the classify floor.

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

Bytes httpGet(const std::string& host, const std::string& path = "/") {
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nUser-Agent: bench/1.0\r\nAccept: */*\r\n\r\n";
  return sc::toBytes(req);
}

Bytes clientHello(const std::string& sni, const std::string& fp) {
  Bytes out;
  sc::appendU8(out, 0x16);
  sc::appendU16(out, 0x0303);
  sc::appendU16(out, static_cast<std::uint16_t>(5 + sni.size() + fp.size()));
  sc::appendU8(out, 1);
  sc::appendU16(out, static_cast<std::uint16_t>(sni.size()));
  sc::appendBytes(out, sc::toBytes(sni));
  sc::appendU16(out, static_cast<std::uint16_t>(fp.size()));
  sc::appendBytes(out, sc::toBytes(fp));
  return out;
}

Bytes randomBytes(std::uint64_t& s, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(xorshift(s) & 0xFF);
  return out;
}

Bytes randomText(std::uint64_t& s, std::size_t n) {
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<std::uint8_t>(0x20 + (xorshift(s) % 95));
  return out;
}

sc::net::Packet tcpPacket(Bytes payload, sc::net::Port dst_port) {
  sc::net::TcpFlags flags;
  flags.ack = true;
  flags.psh = true;
  return sc::net::makeTcp(sc::net::Ipv4(10, 0, 0, 2),
                          sc::net::Ipv4(203, 0, 113, 7), 40001, dst_port,
                          flags, 1, 1, std::move(payload));
}

std::vector<sc::net::Packet> buildCorpus() {
  std::uint64_t seed = 0x5EEDC0DE5EEDC0DEULL;
  std::vector<sc::net::Packet> corpus;
  corpus.push_back(tcpPacket(httpGet("example.com"), 80));
  corpus.push_back(tcpPacket(httpGet("scholar.google.com", "/scholar?q=dpi"), 80));
  corpus.push_back(tcpPacket(httpGet("cdn.jsdelivr.net", "/npm/app.js"), 80));
  corpus.push_back(
      tcpPacket(sc::toBytes("GET http://www.youtube.com/watch?v=x HTTP/1.1\r\n"
                            "Accept: */*\r\n\r\n"),
                80));
  corpus.push_back(
      tcpPacket(sc::toBytes("GET / HTTP/1.1\r\nhOsT:  News.Ycombinator.com \r\n"
                            "Connection: close\r\n\r\n"),
                80));
  corpus.push_back(tcpPacket(clientHello("static.example.org", "chrome/123"), 443));
  corpus.push_back(tcpPacket(clientHello("drive.google.com", "chrome/123"), 443));
  corpus.push_back(tcpPacket(clientHello("ajax.example.com", "tor-browser/13"), 443));
  // Candidate-but-not-blocked: the automaton sees "google.com" inside the
  // SNI, the exact suffix index rejects it (no dot boundary).
  corpus.push_back(tcpPacket(clientHello("google.com.cn", "chrome/123"), 443));
  corpus.push_back(tcpPacket(randomBytes(seed, 512), 8388));
  corpus.push_back(tcpPacket(randomBytes(seed, 96), 8388));
  corpus.push_back(tcpPacket(randomText(seed, 256), 9000));
  corpus.push_back(tcpPacket(Bytes{0x01, 0x00, 0x10, 0x00}, 1723));
  Bytes ovpn = randomBytes(seed, 64);
  ovpn[0] = 0x38;
  corpus.push_back(tcpPacket(std::move(ovpn), 1194));
  corpus.push_back(tcpPacket(randomBytes(seed, 16), 9000));
  corpus.push_back(tcpPacket(httpGet("www.facebook.com"), 80));
  return corpus;
}

std::vector<std::string> blocklistDomains(int filler) {
  std::vector<std::string> domains = {
      "google.com",    "facebook.com", "twitter.com",  "youtube.com",
      ".wikipedia.org", "instagram.com", "blogspot.com"};
  for (int i = 0; i < filler; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "blocked-%03d.example-block.net", i);
    domains.emplace_back(buf);
  }
  return domains;
}

// Verdict streams digest through the shared util FNV-1a (util/hash.h); the
// uint16 overload mixes both verdict bytes little-endian.
std::uint64_t fnv1a(std::uint64_t h, std::uint16_t v) {
  sc::Fnv1a acc(h);
  acc.add(v);
  return acc.value();
}
constexpr std::uint64_t kFnvOffset = sc::kFnv1aOffset;

// One pass of the corpus' verdict stream, recorded while a replica of the
// pre-compiled inspectors still produced the same stream. The filler
// domains never appear in the corpus, so SC_BENCH_GFW_DOMAINS cannot move it.
constexpr std::uint64_t kGoldenVerdictHash = 0x02b4904ed312bd6bULL;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main() {
  using namespace sc;
  const long long n_packets = bench::intFromEnv("SC_BENCH_GFW_PACKETS", 200000);
  const int n_filler = bench::intFromEnv("SC_BENCH_GFW_DOMAINS", 512);
  const int n_waves = bench::intFromEnv("SC_BENCH_GFW_WAVES", 16);
  std::vector<int> cells = bench::parseIntList("SC_BENCH_SCALE_CLIENTS");
  if (cells.empty()) cells = {4, 8, 12};
  const unsigned threads_req = bench::threadsFromEnv();

  std::printf("GFW throughput — compiled DPI inspectors\n");

  const auto corpus = buildCorpus();
  const auto domains = blocklistDomains(n_filler);
  const ClassifierThresholds thresholds;

  CompiledInspector compiled;
  for (const auto& d : domains) compiled.domains.add(d);
  compiled.refresh();
  const std::uint64_t compile_warmup = compiled.recompiles;
  const double full_compile_s = compiled.recompile_seconds;

  // --- 1: timed inspector run, verdicts hashed in-loop --------------------
  std::uint64_t stream_hash = kFnvOffset;
  long long done = 0;
  // sclint:allow(det-wallclock) packets/sec is what this bench reports
  const auto start = std::chrono::steady_clock::now();
  while (done < n_packets) {
    for (const auto& pkt : corpus) {
      stream_hash = fnv1a(stream_hash, compiled.verdict(pkt, thresholds));
      ++done;
    }
  }
  const double pps = static_cast<double>(done) / bench::secondsSince(start);
  std::printf("  inspect: %.3g pkts/s\n", pps);

  // --- 2: one-pass verdict stream vs the golden ---------------------------
  std::uint64_t verdict_hash = kFnvOffset;
  for (const auto& pkt : corpus)
    verdict_hash = fnv1a(verdict_hash, compiled.verdict(pkt, thresholds));
  const bool verdicts_match = verdict_hash == kGoldenVerdictHash;
  std::printf("  verdict hash: %s vs golden %s — %s\n",
              hex64(verdict_hash).c_str(), hex64(kGoldenVerdictHash).c_str(),
              verdicts_match ? "match" : "DIFFER");

  // --- 3: blocklist churn with lazy recompile -----------------------------
  // Each wave mutates the blocklist (fleet-churn shape: add one, retire an
  // older one every second wave), then a batch of packets flows through. The
  // recompile is lazy — it lands on the first packet after the bump.
  const std::uint64_t pre_churn_recompiles = compiled.recompiles;
  const double pre_churn_recompile_s = compiled.recompile_seconds;
  long long churn_done = 0;
  std::uint64_t churn_hash = kFnvOffset;
  const long long batch =
      std::max<long long>(1, n_packets / std::max(1, n_waves));
  // sclint:allow(det-wallclock) churn throughput is what this bench reports
  const auto churn_start = std::chrono::steady_clock::now();
  for (int w = 0; w < n_waves; ++w) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w);
    compiled.domains.add(buf);
    if (w % 2 == 1) {
      std::snprintf(buf, sizeof buf, "wave-%04d.churn.example.net", w - 1);
      compiled.domains.remove(buf);
    }
    long long in_wave = 0;
    while (in_wave < batch) {
      for (const auto& pkt : corpus) {
        churn_hash = fnv1a(churn_hash, compiled.verdict(pkt, thresholds));
        ++in_wave;
        ++churn_done;
        if (in_wave >= batch) break;
      }
    }
  }
  const double churn_s = bench::secondsSince(churn_start);
  const double churn_pps = static_cast<double>(churn_done) / churn_s;
  const std::uint64_t churn_recompiles = compiled.recompiles - pre_churn_recompiles;
  const double churn_recompile_s =
      compiled.recompile_seconds - pre_churn_recompile_s;
  const double retained = pps > 0 ? churn_pps / pps : 0;
  const double recompile_mean_s =
      churn_recompiles > 0
          ? churn_recompile_s / static_cast<double>(churn_recompiles)
          : 0;
  // One recompile costs the same as scanning this many packets at steady
  // state — the number a deployment compares against its churn cadence.
  const double amortize_packets = recompile_mean_s * pps;
  std::printf(
      "  churn: %d waves, %llu recompiles (%.3f ms each, ~%.0f packets to "
      "amortize), %.3g pkts/s (%.0f%% of steady)\n",
      n_waves, static_cast<unsigned long long>(churn_recompiles),
      1e3 * recompile_mean_s, amortize_packets, churn_pps, 100 * retained);

  // --- 4: serial vs parallel campaign sweep (full stack, GFW inline) ------
  measure::ScalabilityOptions sopts;
  sopts.client_counts = cells;
  // sclint:allow(det-wallclock) wall-clock speedup is what this bench reports
  const auto serial_start = std::chrono::steady_clock::now();
  const auto serial = measure::runScalability(measure::Method::kShadowsocks, sopts);
  const double serial_s = bench::secondsSince(serial_start);
  const measure::ParallelRunner runner(threads_req);
  // sclint:allow(det-wallclock) wall-clock speedup is what this bench reports
  const auto par_start = std::chrono::steady_clock::now();
  const auto parallel = measure::runScalability(
      measure::Method::kShadowsocks, sopts, runner.threads());
  const double parallel_s = bench::secondsSince(par_start);
  const bool campaign_match = bench::samePoints(serial, parallel);
  std::printf(
      "  campaign: serial %.2fs, parallel %.2fs on %u threads (%.2fx), "
      "results %s\n",
      serial_s, parallel_s, runner.threads(),
      parallel_s > 0 ? serial_s / parallel_s : 0,
      campaign_match ? "match" : "DIFFER");

  std::FILE* out = std::fopen("BENCH_gfw.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_gfw.json\n");
    return 1;
  }
  bench::JsonWriter jw(out);
  jw.beginObject();
  jw.beginObject("inspect")
      .field("packets", done)
      .field("corpus_payloads", corpus.size())
      .field("blocklist_domains", domains.size())
      .field("automaton_patterns", compiled.engine.automaton().patternCount())
      .field("automaton_states", compiled.engine.automaton().stateCount())
      .field("packets_per_sec", pps)
      .endObject();
  jw.beginObject("equivalence")
      .field("verdict_hash_stream", hex64(stream_hash))
      .field("verdict_hash_one_pass", hex64(verdict_hash))
      .field("verdict_hash_golden", hex64(kGoldenVerdictHash))
      .field("verdicts_match_golden", verdicts_match)
      .endObject();
  jw.beginObject("churn")
      .field("waves", n_waves)
      .field("packets", churn_done)
      .field("recompiles", churn_recompiles)
      .field("recompile_ms_mean", 1e3 * recompile_mean_s)
      .field("amortize_packets", amortize_packets)
      .field("full_compile_ms", 1e3 * full_compile_s /
                                    static_cast<double>(
                                        std::max<std::uint64_t>(1, compile_warmup)))
      .field("packets_per_sec", churn_pps)
      .field("throughput_retained", retained)
      .field("verdict_hash_churn", hex64(churn_hash))
      .endObject();
  jw.beginObject("campaign");
  jw.beginArray("client_counts");
  for (const int c : cells) jw.element(c);
  jw.endArray();
  jw.field("threads", runner.threads())
      .field("serial_seconds", serial_s)
      .field("parallel_seconds", parallel_s)
      .field("speedup", parallel_s > 0 ? serial_s / parallel_s : 0)
      .field("parallel_matches_serial", campaign_match)
      .endObject();
  jw.endObject();
  std::fclose(out);
  std::printf("  -> BENCH_gfw.json\n");
  return verdicts_match && campaign_match ? 0 : 1;
}
