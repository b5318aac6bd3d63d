// Tests for the compiled DPI engine (src/gfw/dpi) and the verdict path the
// GFW runs on it: automaton correctness, the scanner's statistics against
// the crypto ByteView walks, reversed-suffix index vs brute-force
// dnsDomainIs, a golden hash over the corpus' verdict stream, and the
// classifier edge cases with their explicit expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/entropy.h"
#include "gfw/blocklist.h"
#include "gfw/classifier.h"
#include "gfw/dpi/automaton.h"
#include "gfw/dpi/domain_index.h"
#include "gfw/dpi/engine.h"
#include "gfw/dpi/scanner.h"
#include "helpers.h"
#include "net/packet.h"
#include "util/hash.h"
#include "util/strings.h"

namespace sc::gfw {
namespace {

using dpi::Automaton;
using dpi::DomainIndex;
using dpi::Engine;
using dpi::Hit;
using dpi::PayloadScanner;
using dpi::ScanResult;

std::vector<std::pair<std::uint32_t, std::uint32_t>> hitSet(
    const std::vector<Hit>& hits) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const Hit& h : hits) out.emplace_back(h.pattern, h.end);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- automaton ----

TEST(DpiAutomaton, FindsAllOverlappingMatches) {
  Automaton ac;
  ac.compile({"he", "she", "his", "hers"});
  std::vector<Hit> hits;
  ac.scan(toBytes("ushers"), hits);
  // "she" ends at 3, "he" ends at 3 (inside it), "hers" ends at 5.
  const auto got = hitSet(hits);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0, 3}, {1, 3}, {3, 5}};
  EXPECT_EQ(got, want);
}

TEST(DpiAutomaton, CaseFoldsPatternsAndInput) {
  Automaton ac;
  ac.compile({"GoOgle"});
  std::vector<Hit> hits;
  ac.scan(toBytes("xGOOGLEy scholar.google.com"), hits);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].end, 6u);
  EXPECT_EQ(ac.patternLength(0), 6u);
}

TEST(DpiAutomaton, EmptyPatternsCanNeverMatch) {
  Automaton ac;
  ac.compile({});
  EXPECT_TRUE(ac.empty());
  ac.compile({"", ""});
  EXPECT_TRUE(ac.empty());
  std::vector<Hit> hits;
  ac.scan(toBytes("anything"), hits);
  EXPECT_TRUE(hits.empty());

  // Mixed: the empty pattern keeps its id slot, the live one matches.
  ac.compile({"", "x"});
  EXPECT_FALSE(ac.empty());
  ac.scan(toBytes("axa"), hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].pattern, 1u);
}

TEST(DpiAutomaton, RecompileReplacesThePatternSet) {
  Automaton ac;
  ac.compile({"alpha"});
  std::vector<Hit> hits;
  ac.scan(toBytes("alpha beta"), hits);
  EXPECT_EQ(hits.size(), 1u);
  hits.clear();
  ac.compile({"beta"});
  ac.scan(toBytes("alpha beta"), hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].pattern, 0u);
  EXPECT_EQ(hits[0].end, 9u);
}

// ---- reversed-suffix index vs brute-force dnsDomainIs ----

TEST(DpiDomainIndex, MatchesBruteForceDnsDomainIs) {
  const std::vector<std::string> domains = {
      "google.com", ".edu.cn", "scholar.google.com", "x.y", "com",
      ".org", "a.b.c.d"};
  DomainIndex index;
  index.build(domains);
  const std::vector<std::string> hosts = {
      "google.com",      "www.google.com", "GOOGLE.COM",   "google.com.cn",
      "notgoogle.com",   "edu.cn",         "www.edu.cn",   "x.edu.cn",
      "scholar.google.com", "a.scholar.google.com", "x.y", "z.x.y",
      "com",             "a.com",          "org",          "wikipedia.org",
      "a.b.c.d",         "z.a.b.c.d",      "b.c.d",        "",
      ".",               "..",             "a.",           ".google.com",
      "mixed.GoOgLe.CoM"};
  for (const std::string& host : hosts) {
    bool brute = false;
    for (const std::string& d : domains)
      if (dnsDomainIs(host, d)) brute = true;
    EXPECT_EQ(index.isBlocked(host), brute) << "host=" << host;
  }
}

TEST(DpiDomainIndex, EmptyIndexBlocksNothing) {
  DomainIndex index;
  index.build({});
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.isBlocked("google.com"));
  index.build({"", ""});
  EXPECT_TRUE(index.empty());
}

// ---- scanner: one pass must reproduce the ByteView statistics ----

std::vector<Bytes> scanCorpus() {
  std::vector<Bytes> corpus;
  corpus.push_back(toBytes("GET / HTTP/1.1\r\nHost: www.benign.org\r\n\r\n"));
  corpus.push_back(
      toBytes("GET / HTTP/1.1\r\nhost: scholar.google.com\r\n\r\n"));
  corpus.push_back(toBytes("POST / HTTP/1.1\r\nHOST: WWW.GOOGLE.COM\r\n\r\n"));
  corpus.push_back(
      toBytes("GET http://scholar.google.com:443/p HTTP/1.1\r\n\r\n"));
  corpus.push_back(toBytes("GET http:/// HTTP/1.1\r\n\r\n"));  // empty host
  corpus.push_back(toBytes("GET /nohost HTTP/1.1\r\n\r\n"));
  corpus.push_back(test::clientHelloBytes("scholar.google.com", "chrome-56"));
  corpus.push_back(test::clientHelloBytes("www.benign.org", "tor-browser-6.5"));
  corpus.push_back(test::clientHelloBytes("", "MEEK/0.25 chrome"));
  corpus.push_back(test::clientHelloBytes("tor.relays.example", "chrome-56"));
  corpus.push_back(toBytes(std::string(400, 'a')));
  corpus.push_back(toBytes("random bytes"));
  corpus.push_back(crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 1)), Bytes(16, 2),
                                            Bytes(400, 7)));
  corpus.push_back(crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 3)), Bytes(16, 4),
                                            Bytes(48, 9)));
  corpus.push_back(Bytes{0x38});
  corpus.push_back(Bytes{});
  return corpus;
}

TEST(DpiScanner, ReproducesReferenceStatistics) {
  PayloadScanner scanner;
  ScanResult scan;
  for (const Bytes& payload : scanCorpus()) {
    scanner.scan(payload, nullptr, scan);
    // Bit-identical doubles, not just close: the histogram overloads must
    // accumulate in the same order as the ByteView walks.
    EXPECT_EQ(scan.entropy(), crypto::shannonEntropy(payload));
    EXPECT_EQ(scan.printableFraction(), crypto::printableFraction(payload));
    EXPECT_EQ(crypto::chiSquaredUniform(scan.histogram(), scan.size),
              crypto::chiSquaredUniform(payload));
  }
}

TEST(DpiScanner, ClientHelloTruncatedAtEveryBoundaryIsRejected) {
  const Bytes full = test::clientHelloBytes("scholar.google.com", "chrome-56");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const ByteView prefix{full.data(), len};
    const auto view = dpi::parseClientHelloView(prefix);
    // Only the complete message parses: every truncation point (record
    // header, message tag, SNI length/body, fingerprint length/body) must
    // be rejected.
    EXPECT_EQ(view.has_value(), len == full.size()) << "len=" << len;
  }
}

// ---- classifier: the scan -> analyze -> classifyScan path ----

net::Packet tcpPacket(Bytes payload, net::Port dst_port = 443) {
  return net::makeTcp(net::Ipv4(10, 0, 0, 1), net::Ipv4(203, 0, 0, 1), 50000,
                      dst_port, net::TcpFlags{.psh = true}, 0, 0,
                      std::move(payload));
}

// The scan corpus as first packets to port 443, plus the port-keyed VPN
// verdicts.
std::vector<net::Packet> classifierCorpus() {
  std::vector<net::Packet> packets;
  for (const Bytes& payload : scanCorpus()) packets.push_back(tcpPacket(payload));
  packets.push_back(tcpPacket(Bytes{0x01}, 1723));       // PPTP port
  packets.push_back(tcpPacket(Bytes{0x38}, 1194));       // OpenVPN preamble
  packets.push_back(tcpPacket(Bytes{0x39}, 1194));       // wrong preamble
  return packets;
}

// Pins the verdict path the border runs (scan -> Engine::analyze ->
// classifyScan) over the corpus: each packet's class plus the scanner's
// extracted fields, each string length-prefixed so field boundaries count.
TEST(DpiClassifier, VerdictStreamGolden) {
  DomainBlocklist domains;
  domains.add("google.com");
  Engine engine;
  engine.compile(domains.patterns());
  PayloadScanner scanner;
  ScanResult scan;
  const ClassifierThresholds thresholds;

  Fnv1a h;
  for (const net::Packet& pkt : classifierCorpus()) {
    scanner.scan(pkt.payload, &engine.automaton(), scan);
    const Engine::Flags flags = engine.analyze(scan, pkt.payload);
    h.addByte(static_cast<std::uint8_t>(
        classifyScan(scan, flags, pkt, thresholds)));
    for (const std::string_view field :
         {scan.sni, scan.fingerprint, scan.http_host}) {
      h.add(static_cast<std::uint32_t>(field.size()));
      h.add(field);
    }
  }
  EXPECT_EQ(h.value(), 0xec60f27088d42850ULL);
}

// The Tor/meek flag's independent oracle: the substring rule the engine's
// fingerprint patterns compile.
bool torLikeFingerprint(std::string_view fingerprint) {
  return icontains(fingerprint, "tor") || icontains(fingerprint, "meek");
}

TEST(DpiClassifier, PrefilterFlagsAreSound) {
  // candidate == false must imply the exact check fails; candidate == true
  // must be confirmed or rejected by the exact index, never trusted.
  DomainBlocklist domains;
  domains.add("google.com");
  Engine engine;
  engine.compile(domains.patterns());
  PayloadScanner scanner;
  ScanResult scan;
  for (const Bytes& payload : scanCorpus()) {
    scanner.scan(payload, &engine.automaton(), scan);
    const Engine::Flags flags = engine.analyze(scan, payload);
    if (scan.has_client_hello && !flags.sni_candidate) {
      EXPECT_FALSE(domains.isBlocked(scan.sni));
    }
    if (scan.has_http_request && !flags.host_candidate) {
      EXPECT_FALSE(domains.isBlocked(scan.http_host));
    }
    if (scan.has_client_hello) {
      EXPECT_EQ(flags.tor_fingerprint, torLikeFingerprint(scan.fingerprint));
    }
  }
  // "google.com.cn" hits the automaton (substring) but not the suffix
  // match: the prefilter may fire, the exact check must say no.
  const Bytes cn = test::clientHelloBytes("google.com.cn", "chrome-56");
  scanner.scan(cn, &engine.automaton(), scan);
  const Engine::Flags flags = engine.analyze(scan, cn);
  EXPECT_TRUE(flags.sni_candidate);
  EXPECT_FALSE(domains.isBlocked(scan.sni));
}

TEST(DpiClassifier, TorFingerprintFlagIsFieldScoped) {
  Engine engine;
  engine.compile({});
  PayloadScanner scanner;
  ScanResult scan;
  // "tor" in the SNI must not light the fingerprint flag...
  const Bytes sni_tor = test::clientHelloBytes("tor.example.com", "chrome-56");
  scanner.scan(sni_tor, &engine.automaton(), scan);
  EXPECT_FALSE(engine.analyze(scan, sni_tor).tor_fingerprint);
  // ...while an embedded "tor" inside the fingerprint does (icontains
  // semantics: "history" contains "tor").
  const Bytes fp_tor = test::clientHelloBytes("www.benign.org", "history");
  scanner.scan(fp_tor, &engine.automaton(), scan);
  EXPECT_TRUE(engine.analyze(scan, fp_tor).tor_fingerprint);
}

// ---- classifier edge cases ----

struct EdgeCase {
  const char* payload;
  bool engaged;
  const char* host;
};

TEST(DpiClassifierEdge, AbsoluteUriAndHostHeaderVariants) {
  const EdgeCase cases[] = {
      {"GET http://blocked.example:8080/p HTTP/1.1\r\n\r\n", true,
       "blocked.example"},
      {"GET http://blocked.example/path HTTP/1.1\r\n\r\n", true,
       "blocked.example"},
      {"CONNECT https://a.b/ HTTP/1.1\r\n\r\n", true, "a.b"},
      {"GET http:/// HTTP/1.1\r\n\r\n", true, ""},  // engaged but empty
      {"GET / HTTP/1.1\r\nHOST: X.COM\r\n\r\n", true, "X.COM"},
      {"GET / HTTP/1.1\r\nhOsT:   spaced.example  \r\n\r\n", true,
       "spaced.example"},
      {"GET /nohost HTTP/1.1\r\n\r\n", true, ""},
      {"PATCH / HTTP/1.1\r\nHost: x\r\n\r\n", false, ""},  // unknown method
      {"random bytes", false, ""},
  };
  for (const EdgeCase& c : cases) {
    const auto view = dpi::extractHttpHostView(c.payload);
    EXPECT_EQ(view.has_value(), c.engaged) << c.payload;
    if (view) {
      EXPECT_EQ(std::string(*view), c.host) << c.payload;
    }
  }
}

TEST(DpiClassifierEdge, ShortPayloadEntropyCapClassifiesCiphertext) {
  // A short ciphertext burst cannot reach 8 bits/byte; the scaled threshold
  // must still classify it.
  Engine engine;
  engine.compile({});
  PayloadScanner scanner;
  ScanResult scan;
  ClassifierThresholds thresholds;
  for (const std::size_t n : {48u, 64u, 100u, 256u}) {
    const net::Packet pkt = tcpPacket(crypto::aes256CfbEncrypt(
        crypto::Aes256(Bytes(32, 3)), Bytes(16, 4), Bytes(n, 9)));
    scanner.scan(pkt.payload, &engine.automaton(), scan);
    const Engine::Flags flags = engine.analyze(scan, pkt.payload);
    EXPECT_EQ(classifyScan(scan, flags, pkt, thresholds),
              FlowClass::kHighEntropy)
        << n;
  }
}

}  // namespace
}  // namespace sc::gfw
