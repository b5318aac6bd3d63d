#include <gtest/gtest.h>

#include "crypto/entropy.h"
#include "dns/server.h"
#include "gfw/gfw.h"
#include "helpers.h"
#include "http/socks.h"
#include "shadowsocks/shadowsocks.h"

namespace sc::shadowsocks {
namespace {

using test::MiniWorld;

TEST(SsCodec, KeyDerivationIsDeterministic) {
  EXPECT_EQ(keyFromPassword("hunter2"), keyFromPassword("hunter2"));
  EXPECT_NE(keyFromPassword("hunter2"), keyFromPassword("hunter3"));
  EXPECT_EQ(keyFromPassword("x").size(), 32u);
}

TEST(SsCodec, TargetAddressRoundTripsHostname) {
  const auto target =
      transport::ConnectTarget::byHostname("scholar.google.com", 443);
  const Bytes wire = encodeTargetAddress(target);
  std::size_t off = 0;
  const auto decoded = decodeTargetAddress(wire, off);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->host, "scholar.google.com");
  EXPECT_EQ(decoded->port, 443);
  EXPECT_EQ(off, wire.size());
}

TEST(SsCodec, TargetAddressRoundTripsIp) {
  const auto target = transport::ConnectTarget::byAddress(
      {net::Ipv4(203, 0, 1, 5), 8080});
  const Bytes wire = encodeTargetAddress(target);
  std::size_t off = 0;
  const auto decoded = decodeTargetAddress(wire, off);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->byName());
  EXPECT_EQ(decoded->ip, net::Ipv4(203, 0, 1, 5));
  EXPECT_EQ(decoded->port, 8080);
}

TEST(SsCodec, DecodeRejectsGarbageAndTruncation) {
  std::size_t off = 0;
  EXPECT_FALSE(decodeTargetAddress(Bytes{0x09, 1, 2}, off).has_value());
  off = 0;
  EXPECT_FALSE(decodeTargetAddress(Bytes{0x03, 200}, off).has_value());
  off = 0;
  EXPECT_FALSE(decodeTargetAddress({}, off).has_value());
}

struct SsWorld : MiniWorld {
  net::Node& dns_node{world.addUsServer("dns")};
  net::Node& web_node{world.addUsServer("web")};
  transport::HostStack dns_stack{dns_node};
  transport::HostStack web_stack{web_node};
  dns::DnsServer dns_server{dns_stack};
  std::unique_ptr<ShadowsocksRemote> remote;
  std::unique_ptr<ShadowsocksLocal> local;
  transport::TcpListener::Ptr echo_listener;

  SsWorld() {
    dns_server.addRecord("echo.test", web_node.primaryIp());
    echo_listener = web_stack.tcpListen(7000, [](transport::TcpSocket::Ptr s) {
      s->setOnData([s](ByteView d) { s->send(Bytes(d.begin(), d.end())); });
    });
    RemoteOptions ropts;
    ropts.dns_server = dns_node.primaryIp();
    remote = std::make_unique<ShadowsocksRemote>(server, "pw", ropts);
    LocalOptions lopts;
    lopts.remote = net::Endpoint{server_node.primaryIp(), kDefaultDataPort};
    lopts.password = "pw";
    local = std::make_unique<ShadowsocksLocal>(client, lopts);
  }

  // Opens a stream through ss-local's SOCKS port and echoes `msg`.
  Bytes echoThroughProxy(const std::string& msg) {
    auto connector = std::make_shared<http::SocksConnector>(
        client, local->socksEndpoint());
    Bytes echoed;
    transport::Stream::Ptr keep;
    connector->connect(transport::ConnectTarget::byHostname("echo.test", 7000),
                       [&](transport::Stream::Ptr stream) {
                         if (stream == nullptr) return;
                         keep = stream;
                         stream->setOnData([&](ByteView d) {
                           appendBytes(echoed, d);
                         });
                         stream->send(toBytes(msg));
                       });
    runUntilDone([&] { return echoed.size() >= msg.size(); });
    return echoed;
  }
};

TEST(Shadowsocks, ProxiesAndResolvesRemotely) {
  SsWorld w;
  EXPECT_EQ(toString(w.echoThroughProxy("hello through ss")),
            "hello through ss");
  EXPECT_EQ(w.remote->connectionsServed(), 1u);
  EXPECT_EQ(w.remote->authsServed(), 1u);
  EXPECT_EQ(w.local->authRoundTrips(), 1u);
  // Name resolution happened at ss-remote: the client sent no DNS query.
  EXPECT_EQ(w.dns_server.queriesServed(), 1u);
}

TEST(Shadowsocks, AuthChannelReusedWithinKeepAlive) {
  SsWorld w;
  (void)w.echoThroughProxy("one");
  (void)w.echoThroughProxy("two");  // right away: within the 10 s keep-alive
  EXPECT_EQ(w.local->authRoundTrips(), 1u);  // one channel establishment
  EXPECT_EQ(w.remote->authsServed(), 1u);
  EXPECT_EQ(w.remote->connectionsServed(), 2u);
}

TEST(Shadowsocks, KeepAliveExpiryForcesReauth) {
  SsWorld w;
  (void)w.echoThroughProxy("one");
  w.sim.runUntil(w.sim.now() + 61 * sim::kSecond);  // the paper's cadence
  (void)w.echoThroughProxy("two");
  EXPECT_EQ(w.local->authRoundTrips(), 2u);
  EXPECT_EQ(w.remote->authsServed(), 2u);
}

TEST(Shadowsocks, WrongPasswordGetsMuteTreatment) {
  SsWorld w;
  LocalOptions lopts;
  lopts.remote = net::Endpoint{w.server_node.primaryIp(), kDefaultDataPort};
  lopts.password = "wrong-password";
  lopts.local_port = 1081;
  ShadowsocksLocal bad(w.client, lopts);

  auto connector = std::make_shared<http::SocksConnector>(
      w.client, bad.socksEndpoint());
  bool done = false;
  transport::Stream::Ptr got;
  connector->connect(transport::ConnectTarget::byHostname("echo.test", 7000),
                     [&](transport::Stream::Ptr stream) {
                       done = true;
                       got = stream;
                     });
  w.runUntilDone([&] { return done; }, 3 * sim::kMinute);
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(w.remote->authsServed(), 0u);
}

TEST(Shadowsocks, WireBytesAreCiphertext) {
  struct Tap : net::PacketFilter {
    Bytes data_port_payloads;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      if (pkt.isTcp() && (pkt.tcp().dst_port == kDefaultDataPort ||
                          pkt.tcp().src_port == kDefaultDataPort))
        appendBytes(data_port_payloads, pkt.payload);
      return Verdict::kPass;
    }
  };
  SsWorld w;
  Tap tap;
  w.world.borderLink().addFilter(&tap);
  const std::string secret = "the secret scholarly query string";
  (void)w.echoThroughProxy(secret);
  const std::string wire = toString(tap.data_port_payloads);
  EXPECT_EQ(wire.find(secret), std::string::npos);
  EXPECT_EQ(wire.find("echo.test"), std::string::npos);  // header encrypted too
  // Short exchange: entropy is capped by sample size; 6.4 bits/byte over
  // ~150 bytes is ciphertext-grade (text plateaus near 4.5).
  EXPECT_GT(crypto::shannonEntropy(tap.data_port_payloads), 5.5);
}

TEST(Shadowsocks, ProbeGarbageNeverGetsAReply) {
  SsWorld w;
  // Connect straight to the data port and send garbage (what the GFW's
  // active prober does).
  Bytes received;
  bool closed = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), kDefaultDataPort},
      [&](const auto& conn) { const bool ok = conn != nullptr; ASSERT_TRUE(ok); });
  sock->setOnData([&](ByteView d) { appendBytes(received, d); });
  sock->setOnClose([&] { closed = true; });
  sock->send(Bytes(600, 0x41));  // not valid IV+header, never decodes
  w.runUntilDone([&] { return closed; }, 2 * sim::kMinute);
  EXPECT_TRUE(received.empty());
  EXPECT_GE(w.remote->decodeFailures(), 1u);
}

TEST(Shadowsocks, ConcurrentStreamsShareOneAuthChannel) {
  SsWorld w;
  constexpr int kStreams = 5;
  int connected = 0;
  std::vector<transport::Stream::Ptr> keep;
  for (int i = 0; i < kStreams; ++i) {
    auto connector = std::make_shared<http::SocksConnector>(
        w.client, w.local->socksEndpoint());
    connector->connect(
        transport::ConnectTarget::byHostname("echo.test", 7000),
        [&](transport::Stream::Ptr stream) {
          if (stream != nullptr) {
            keep.push_back(stream);
            ++connected;
          }
        });
  }
  w.runUntilDone([&] { return connected == kStreams; });
  EXPECT_EQ(w.local->authRoundTrips(), 1u);  // one channel for the burst
  EXPECT_EQ(w.remote->connectionsServed(),
            static_cast<std::uint64_t>(kStreams));
}

}  // namespace
}  // namespace sc::shadowsocks
