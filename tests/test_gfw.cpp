#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "dns/resolver.h"
#include "dns/server.h"
#include "gfw/gfw.h"
#include "helpers.h"
#include "http/tls.h"

namespace sc::gfw {
namespace {

using test::MiniWorld;

// ---- blocklists ----

TEST(DomainBlocklist, SuffixSemantics) {
  DomainBlocklist list;
  list.add("google.com");
  EXPECT_TRUE(list.isBlocked("google.com"));
  EXPECT_TRUE(list.isBlocked("scholar.google.com"));
  EXPECT_TRUE(list.isBlocked("SCHOLAR.GOOGLE.COM"));
  EXPECT_FALSE(list.isBlocked("notgoogle.com"));
  EXPECT_FALSE(list.isBlocked("google.com.cn"));
  list.remove("google.com");
  EXPECT_FALSE(list.isBlocked("scholar.google.com"));
}

TEST(IpBlocklist, ExactPrefixAndExpiry) {
  IpBlocklist list;
  list.add(net::Ipv4(1, 2, 3, 4));
  list.addPrefix(net::Prefix{net::Ipv4(198, 18, 0, 0), 16});
  EXPECT_TRUE(list.isBlocked(net::Ipv4(1, 2, 3, 4), 0));
  EXPECT_TRUE(list.isBlocked(net::Ipv4(198, 18, 9, 9), 0));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(1, 2, 3, 5), 0));

  list.add(net::Ipv4(5, 5, 5, 5), /*expiry=*/1000);
  EXPECT_TRUE(list.isBlocked(net::Ipv4(5, 5, 5, 5), 999));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(5, 5, 5, 5), 1001));

  // Permanent entries never shorten.
  list.add(net::Ipv4(1, 2, 3, 4), 50);
  EXPECT_TRUE(list.isBlocked(net::Ipv4(1, 2, 3, 4), 1 << 20));
}

TEST(IpBlocklist, VersionCountsEveryEffectiveMutation) {
  // The chaos engine leans on version()/setOnChange() as the churn channel,
  // so rapid successive mutations must neither coalesce real changes nor
  // count no-ops as churn.
  IpBlocklist list;
  EXPECT_EQ(list.version(), 0u);
  list.add(net::Ipv4(9, 9, 9, 1));
  list.add(net::Ipv4(9, 9, 9, 2), 500);
  list.add(net::Ipv4(9, 9, 9, 3), 800);
  EXPECT_EQ(list.version(), 3u);

  // Re-adding a permanent entry is a no-op: no bump, no callback.
  list.add(net::Ipv4(9, 9, 9, 1), 100);
  EXPECT_EQ(list.version(), 3u);
  // Extending a finite entry IS churn.
  list.add(net::Ipv4(9, 9, 9, 2), 900);
  EXPECT_EQ(list.version(), 4u);

  // Removing something absent is not churn; removing a live entry is.
  list.remove(net::Ipv4(7, 7, 7, 7));
  EXPECT_EQ(list.version(), 4u);
  list.remove(net::Ipv4(9, 9, 9, 3));
  EXPECT_EQ(list.version(), 5u);
}

TEST(IpBlocklist, OnChangeFiresAfterTheMutationLands) {
  // The single observer must see post-mutation state (fleets call
  // probeAllNow from here and need isBlocked to answer the new truth), and
  // back-to-back mutations must each fire — ordering, no coalescing.
  IpBlocklist list;
  std::vector<std::pair<std::uint64_t, bool>> seen;  // version, blocked(A)?
  const net::Ipv4 a(10, 0, 0, 1);
  list.setOnChange([&] { seen.push_back({list.version(), list.isBlocked(a, 0)}); });

  list.add(a);
  list.add(net::Ipv4(10, 0, 0, 2), 300);
  list.remove(a);
  list.remove(a);  // second remove: absent, must not fire

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, bool>{1, true}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, bool>{2, true}));
  EXPECT_EQ(seen[2], (std::pair<std::uint64_t, bool>{3, false}));
}

TEST(IpBlocklist, LookupIsPureAndGcSweepsOnlyExpired) {
  // isBlocked is const and side-effect free: an expired entry answers
  // false any number of times without mutating the list, until gcExpired
  // sweeps it. The sweep is recovery, not churn — no version bump, no
  // on-change callback.
  IpBlocklist list;
  list.add(net::Ipv4(5, 5, 5, 5), /*expiry=*/1000);
  list.add(net::Ipv4(6, 6, 6, 6));                   // permanent
  list.add(net::Ipv4(7, 7, 7, 7), /*expiry=*/5000);  // not yet expired
  const std::uint64_t version_before = list.version();
  int fired = 0;
  list.setOnChange([&] { ++fired; });

  EXPECT_FALSE(list.isBlocked(net::Ipv4(5, 5, 5, 5), 2000));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(5, 5, 5, 5), 2000));
  EXPECT_EQ(list.size(), 3u);  // expired entry still present until the sweep

  list.gcExpired(2000);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.isBlocked(net::Ipv4(6, 6, 6, 6), 2000));
  EXPECT_TRUE(list.isBlocked(net::Ipv4(7, 7, 7, 7), 2000));
  EXPECT_EQ(list.version(), version_before);
  EXPECT_EQ(fired, 0);
}

TEST(IpBlocklist, PrefixLookupCoversMixedLengths) {
  // Sorted-prefix binary search: one probe per distinct length, including
  // the degenerate /0 (matches everything) and /32 (exact).
  IpBlocklist list;
  list.addPrefix(net::Prefix{net::Ipv4(198, 18, 0, 0), 16});
  list.addPrefix(net::Prefix{net::Ipv4(10, 0, 0, 0), 8});
  list.addPrefix(net::Prefix{net::Ipv4(203, 0, 113, 77), 32});
  // Unmasked base bits must be ignored (masked at insert).
  list.addPrefix(net::Prefix{net::Ipv4(192, 168, 55, 99), 24});
  EXPECT_TRUE(list.isBlocked(net::Ipv4(198, 18, 200, 1), 0));
  EXPECT_TRUE(list.isBlocked(net::Ipv4(10, 99, 1, 2), 0));
  EXPECT_TRUE(list.isBlocked(net::Ipv4(203, 0, 113, 77), 0));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(203, 0, 113, 78), 0));
  EXPECT_TRUE(list.isBlocked(net::Ipv4(192, 168, 55, 1), 0));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(192, 168, 56, 1), 0));
  EXPECT_FALSE(list.isBlocked(net::Ipv4(11, 0, 0, 1), 0));
}

TEST(DomainBlocklist, VersionBumpsOnlyOnEffectiveMutations) {
  DomainBlocklist list;
  EXPECT_EQ(list.version(), 0u);
  EXPECT_TRUE(list.empty());
  list.add("google.com");
  EXPECT_EQ(list.version(), 1u);
  list.add("GOOGLE.COM");  // dedupe (case-folded): no churn
  EXPECT_EQ(list.version(), 1u);
  list.remove("absent.example");
  EXPECT_EQ(list.version(), 1u);
  list.remove("google.com");
  EXPECT_EQ(list.version(), 2u);
  EXPECT_TRUE(list.empty());
}

// ---- classifiers ----

TEST(Classifier, RecognizesPlainHttpHost) {
  const auto host = extractHttpHost(
      toBytes("GET / HTTP/1.1\r\nhost: scholar.google.com\r\n\r\n"));
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(*host, "scholar.google.com");
  EXPECT_FALSE(extractHttpHost(toBytes("random bytes")).has_value());
}

TEST(Classifier, ParsesClientHelloSniAndFingerprint) {
  // Build a CH by running the real TLS client against a capture.
  MiniWorld w;
  Bytes captured;
  std::vector<transport::TcpSocket::Ptr> accepted;
  auto listener = w.server.tcpListen(443, [&](transport::TcpSocket::Ptr sock) {
    accepted.push_back(sock);
    sock->setOnData([&](ByteView data) { appendBytes(captured, data); });
  });
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 443}, [&, holder](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        http::TlsClientOptions opts;
        opts.sni = "scholar.google.com";
        opts.fingerprint = "tor-browser-6.5";
        http::TlsStream::clientHandshake(*holder, w.sim, opts, nullptr,
                                         [](http::TlsStream::Ptr) {});
      });
  w.runUntilDone([&] { return !captured.empty(); });
  const auto hello = parseClientHello(captured);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->sni, "scholar.google.com");
  EXPECT_EQ(hello->fingerprint, "tor-browser-6.5");
  EXPECT_TRUE(isTorLikeFingerprint(hello->fingerprint));
  EXPECT_FALSE(isTorLikeFingerprint("chrome-56"));
  EXPECT_TRUE(isTorLikeFingerprint("meek/0.25 chrome"));
}

TEST(Classifier, EntropyClassifierCatchesCiphertextButNotText) {
  ClassifierThresholds thresholds;
  net::Packet ct = net::makeTcp(net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2),
                                50000, 8388, net::TcpFlags{.psh = true}, 0, 0,
                                crypto::aes256CfbEncrypt(
                                    crypto::Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(400, 7)));
  EXPECT_EQ(classifyTcpPayload(ct, thresholds), FlowClass::kHighEntropy);

  net::Packet text = ct;
  text.payload = toBytes(std::string(400, 'a'));
  EXPECT_EQ(classifyTcpPayload(text, thresholds), FlowClass::kTextLike);
}

TEST(Classifier, CatchesSmallHighEntropyFirstPacket) {
  // Shadowsocks' first packet: 16-byte IV + ~22-byte encrypted header.
  ClassifierThresholds thresholds;
  net::Packet small = net::makeTcp(
      net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2), 50000, 8388,
      net::TcpFlags{.psh = true}, 0, 0,
      crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 3)), Bytes(16, 4), Bytes(48, 9)));
  EXPECT_EQ(classifyTcpPayload(small, thresholds), FlowClass::kHighEntropy);
}

TEST(Classifier, RecognizesVpnProtocols) {
  ClassifierThresholds thresholds;
  net::Packet pptp = net::makeTcp(net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2),
                                  50000, 1723, net::TcpFlags{}, 0, 0,
                                  Bytes{0x01});
  EXPECT_EQ(classifyTcpPayload(pptp, thresholds), FlowClass::kVpnPptp);

  net::Packet gre = net::makeGre(net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2),
                                 1, Bytes(64, 0));
  EXPECT_EQ(classifyNonTcp(gre), FlowClass::kVpnPptp);

  net::Packet ovpn = net::makeUdp(net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2),
                                  50000, 1194, Bytes{0x38});
  EXPECT_EQ(classifyNonTcp(ovpn), FlowClass::kOpenVpn);

  net::Packet esp;
  esp.proto = net::IpProto::kEsp;
  esp.l4 = net::EspFrame{};
  EXPECT_EQ(classifyNonTcp(esp), FlowClass::kVpnL2tp);
}

// ---- end-to-end GFW behaviour on the mini world ----

struct GfwWorld : MiniWorld {
  Gfw gfw{network, GfwConfig{}};
  dns::DnsServer dns_server{server};

  GfwWorld() {
    gfw.attachTo(world.borderLink(), net::Direction::kAtoB);
    gfw.domains().add("google.com");
    dns_server.addRecord("scholar.google.com", net::Ipv4(203, 0, 1, 50));
    dns_server.addRecord("www.amazon.com", net::Ipv4(203, 0, 1, 51));
  }
};

TEST(Gfw, PoisonsBlockedDnsQueries) {
  GfwWorld w;
  dns::Resolver resolver(w.client, w.server_node.primaryIp());
  std::optional<net::Ipv4> answer;
  bool done = false;
  resolver.resolve("scholar.google.com", [&](std::optional<net::Ipv4> a) {
    done = true;
    answer = a;
  });
  w.runUntilDone([&] { return done; });
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, kPoisonAddress);  // forged answer won the race
  EXPECT_EQ(w.gfw.stats().dns_poisoned, 1u);
}

TEST(Gfw, LeavesInnocentDnsAlone) {
  GfwWorld w;
  dns::Resolver resolver(w.client, w.server_node.primaryIp());
  std::optional<net::Ipv4> answer;
  bool done = false;
  resolver.resolve("www.amazon.com", [&](std::optional<net::Ipv4> a) {
    done = true;
    answer = a;
  });
  w.runUntilDone([&] { return done; });
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, net::Ipv4(203, 0, 1, 51));
  EXPECT_EQ(w.gfw.stats().dns_poisoned, 0u);
}

TEST(Gfw, InjectsRstOnBlockedHostHeader) {
  GfwWorld w;
  auto listener = w.server.tcpListen(80, [](transport::TcpSocket::Ptr sock) {
    sock->setOnData([sock](ByteView) { sock->send(toBytes("HTTP/1.1 200")); });
  });
  bool closed = false;
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
      });
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->setOnClose([&] { closed = true; });
  sock->send(toBytes("GET / HTTP/1.1\r\nhost: scholar.google.com\r\n\r\n"));
  w.runUntilDone([&] { return closed; });
  EXPECT_TRUE(received.empty());
  EXPECT_GE(w.gfw.stats().rst_injected, 1u);
}

TEST(Gfw, InjectsRstOnBlockedSni) {
  GfwWorld w;
  http::TlsAcceptor acceptor("scholar.google.com", w.sim);
  auto listener = w.server.tcpListen(443, [&](transport::TcpSocket::Ptr sock) {
    acceptor.accept(sock, [](http::TlsStream::Ptr) {});
  });
  bool done = false;
  http::TlsStream::Ptr result;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 443}, [&, holder](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
        http::TlsClientOptions opts;
        opts.sni = "scholar.google.com";
        http::TlsStream::clientHandshake(*holder, w.sim, opts, nullptr,
                                         [&](http::TlsStream::Ptr tls) {
                                           done = true;
                                           result = tls;
                                         });
      });
  w.runUntilDone([&] { return done; });
  EXPECT_EQ(result, nullptr);
  EXPECT_GE(w.gfw.stats().rst_injected, 1u);
}

TEST(Gfw, IpBlockingDropsSilently) {
  GfwWorld w;
  w.gfw.ips().add(w.server_node.primaryIp());
  bool done = false, ok = true;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 443}, [&](const auto& conn) {
        const bool r = conn != nullptr;
        done = true;
        ok = r;
      });
  w.runUntilDone([&] { return done; }, 3 * sim::kMinute);
  EXPECT_FALSE(ok);  // SYNs black-holed until the connect gives up
  EXPECT_GT(w.gfw.stats().ip_blocked, 2u);
}

TEST(Gfw, DisciplinesHighEntropyFlows) {
  GfwWorld w;
  w.gfw.config().unknown_discipline = 0.5;  // crank it up for a visible signal
  auto listener = w.server.tcpListen(8388, [](transport::TcpSocket::Ptr sock) {
    sock->setOnData([](ByteView) {});
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8388}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
      });
  // Push ciphertext through the flow.
  const Bytes ct =
      crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(30000, 5));
  sock->send(ct);
  w.sim.runUntil(w.sim.now() + 2 * sim::kMinute);
  EXPECT_GT(w.gfw.stats().disciplined_drops, 3u);
  const auto classes = w.gfw.flowClassCounts();
  EXPECT_GE(classes.at(FlowClass::kHighEntropy), 1u);
}

TEST(Gfw, RegisteredIcpLeniencySparesTheFlow) {
  GfwWorld w;
  w.gfw.config().unknown_discipline = 0.5;
  const net::Ipv4 client_ip = w.client_node.primaryIp();
  w.gfw.setIcpLookup([client_ip](net::Ipv4 ip) { return ip == client_ip; });
  auto listener = w.server.tcpListen(8388, [](transport::TcpSocket::Ptr sock) {
    sock->setOnData([](ByteView) {});
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8388}, [](const auto&) {});
  sock->send(
      crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(30000, 5)));
  w.sim.runUntil(w.sim.now() + 2 * sim::kMinute);
  EXPECT_EQ(w.gfw.stats().disciplined_drops, 0u);
  EXPECT_GE(w.gfw.stats().leniency_granted, 1u);
}

TEST(Gfw, ActiveProbeConfirmsMuteServerAndBlocksFutureFlows) {
  GfwWorld w;
  w.gfw.config().probe_delay = sim::kSecond;
  auto& probe_node = w.world.addChinaHost("probe");
  transport::HostStack probe_stack(probe_node);
  w.gfw.enableActiveProbing(probe_stack);

  // A mute server: accepts, reads, never answers, closes on garbage.
  auto listener = w.server.tcpListen(8388, [&](transport::TcpSocket::Ptr sock) {
    sock->setOnData([sock, &w](ByteView) {
      w.sim.schedule(100 * sim::kMillisecond, [sock] { sock->close(); });
    });
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8388}, [](const auto&) {});
  sock->send(
      crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(500, 5)));
  w.sim.runUntil(w.sim.now() + 30 * sim::kSecond);
  EXPECT_GE(w.gfw.stats().probes_launched, 1u);
  EXPECT_GE(w.gfw.stats().suspects_confirmed, 1u);
  EXPECT_TRUE(w.gfw.isSuspectServer(w.server_node.primaryIp()));
}

TEST(Gfw, ActiveProbeExoneratesServersThatAnswer) {
  GfwWorld w;
  w.gfw.config().probe_delay = sim::kSecond;
  auto& probe_node = w.world.addChinaHost("probe");
  transport::HostStack probe_stack(probe_node);
  w.gfw.enableActiveProbing(probe_stack);

  // A chatty server: answers anything with an error banner.
  auto listener = w.server.tcpListen(8388, [](transport::TcpSocket::Ptr sock) {
    sock->setOnData(
        [sock](ByteView) { sock->send(toBytes("400 Bad Request")); });
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8388}, [](const auto&) {});
  sock->send(
      crypto::aes256CfbEncrypt(crypto::Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(500, 5)));
  w.sim.runUntil(w.sim.now() + 30 * sim::kSecond);
  EXPECT_GE(w.gfw.stats().probes_launched, 1u);
  EXPECT_FALSE(w.gfw.isSuspectServer(w.server_node.primaryIp()));
}

TEST(Gfw, TechniqueSwitchesDisarmMechanisms) {
  GfwWorld w;
  w.gfw.config().dns_poisoning = false;
  dns::Resolver resolver(w.client, w.server_node.primaryIp());
  std::optional<net::Ipv4> answer;
  bool done = false;
  resolver.resolve("scholar.google.com", [&](std::optional<net::Ipv4> a) {
    done = true;
    answer = a;
  });
  w.runUntilDone([&] { return done; });
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, net::Ipv4(203, 0, 1, 50));  // the genuine answer
}

TEST(Gfw, FlowTableGarbageCollects) {
  GfwWorld w;
  auto listener = w.server.tcpListen(8080, [](transport::TcpSocket::Ptr sock) {
    sock->setOnData([](ByteView) {});
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [](const auto&) {});
  sock->send(toBytes("some innocuous request"));
  w.sim.runUntil(w.sim.now() + 2 * sim::kSecond);
  EXPECT_GT(w.gfw.flowTableSize(), 0u);
  w.sim.runUntil(w.sim.now() + 10 * sim::kMinute);
  EXPECT_EQ(w.gfw.flowTableSize(), 0u);
}

}  // namespace
}  // namespace sc::gfw
