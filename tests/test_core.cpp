#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/remote_proxy.h"
#include "crypto/entropy.h"
#include "dns/server.h"
#include "helpers.h"
#include "http/browser.h"
#include "http/client.h"
#include "http/origin.h"
#include "obs/hub.h"
#include "regulation/tca_agency.h"
#include "util/hash.h"

namespace sc::core {
namespace {

using test::MiniWorld;

// ---- BlindedStream ----

struct PipeWorld : MiniWorld {
  transport::Stream::Ptr server_raw;
  transport::TcpListener::Ptr listener;

  transport::Stream::Ptr connectRaw() {
    listener = server.tcpListen(443, [this](transport::TcpSocket::Ptr sock) {
      server_raw = sock;
    });
    transport::Stream::Ptr client_raw;
    bool done = false;
    auto holder = std::make_shared<transport::TcpSocket::Ptr>();
    *holder = client.tcpConnect(net::Endpoint{server_node.primaryIp(), 443},
                                [&, holder](const auto& conn) {
                                  const bool ok = conn != nullptr;
                                  done = true;
                                  if (ok) client_raw = *holder;
                                });
    runUntilDone([&] { return done && server_raw != nullptr; });
    return client_raw;
  }
};

TEST(BlindedStream, CarriesDataTransparently) {
  PipeWorld w;
  auto client_raw = w.connectRaw();
  ASSERT_NE(client_raw, nullptr);
  const Bytes secret = toBytes("shared");
  auto client_blind = BlindedStream::wrap(client_raw, secret);
  auto server_blind = BlindedStream::wrap(w.server_raw, secret);
  Bytes got;
  server_blind->setOnData([&](ByteView d) { appendBytes(got, d); });
  client_blind->send(toBytes("hello blinding"));
  w.runUntilDone([&] { return got.size() >= 14; });
  EXPECT_EQ(toString(got), "hello blinding");
}

TEST(BlindedStream, WireBytesDoNotMatchPlaintext) {
  struct Tap : net::PacketFilter {
    Bytes payloads;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      if (pkt.isTcp()) appendBytes(payloads, pkt.payload);
      return Verdict::kPass;
    }
  };
  PipeWorld w;
  Tap tap;
  w.world.borderLink().addFilter(&tap);
  auto client_raw = w.connectRaw();
  const Bytes secret = toBytes("shared");
  auto client_blind = BlindedStream::wrap(client_raw, secret);
  auto server_blind = BlindedStream::wrap(w.server_raw, secret);
  Bytes got;
  server_blind->setOnData([&](ByteView d) { appendBytes(got, d); });
  client_blind->send(toBytes("GET /scholar HTTP/1.1"));
  w.runUntilDone([&] { return !got.empty(); });
  EXPECT_EQ(toString(tap.payloads).find("GET /scholar"), std::string::npos);
}

TEST(BlindedStream, RotationMidStreamStaysInSync) {
  PipeWorld w;
  auto client_raw = w.connectRaw();
  const Bytes secret = toBytes("shared");
  auto client_blind = BlindedStream::wrap(client_raw, secret);
  auto server_blind = BlindedStream::wrap(w.server_raw, secret);
  Bytes got;
  server_blind->setOnData([&](ByteView d) { appendBytes(got, d); });

  client_blind->send(toBytes("epoch-zero "));
  client_blind->rotate(5);
  EXPECT_EQ(client_blind->txEpoch(), 5u);
  client_blind->send(toBytes("epoch-five"));
  w.runUntilDone([&] { return got.size() >= 21; });
  EXPECT_EQ(toString(got), "epoch-zero epoch-five");
}

// ---- Tunnel mux ----

struct TunnelWorld : PipeWorld {
  Tunnel::Ptr client_tunnel;
  Tunnel::Ptr server_tunnel;

  void connectTunnels(crypto::BlindingMode mode = crypto::BlindingMode::kByteMap) {
    auto client_raw = connectRaw();
    ASSERT_NE(client_raw, nullptr);
    Tunnel::Options copts;
    copts.secret = toBytes("tunnel-secret");
    copts.blinding_mode = mode;
    copts.client_side = true;
    client_tunnel = Tunnel::create(client_raw, sim, copts);
    Tunnel::Options sopts = copts;
    sopts.client_side = false;
    server_tunnel = Tunnel::create(server_raw, sim, sopts);
  }
};

TEST(Tunnel, MultiplexesManyStreams) {
  TunnelWorld w;
  w.connectTunnels();

  // Server side: echo every stream, prefixing its target port.
  std::vector<transport::Stream::Ptr> server_streams;
  w.server_tunnel->setOpenHandler(
      [&](transport::Stream::Ptr stream, transport::ConnectTarget target,
          bool) {
        server_streams.push_back(stream);  // owns it; the handler observes
        stream->setOnData([stream = stream.get(), target](ByteView data) {
          Bytes reply = toBytes(std::to_string(target.port) + ":");
          appendBytes(reply, data);
          stream->send(std::move(reply));
        });
      });

  constexpr int kStreams = 8;
  std::vector<Bytes> replies(kStreams);
  std::vector<transport::Stream::Ptr> streams;
  for (int i = 0; i < kStreams; ++i) {
    auto stream = w.client_tunnel->openStream(
        transport::ConnectTarget::byHostname("h", static_cast<net::Port>(100 + i)),
        /*passthrough=*/false);
    stream->setOnData([&replies, i](ByteView d) {
      appendBytes(replies[static_cast<std::size_t>(i)], d);
    });
    stream->send(toBytes("msg" + std::to_string(i)));
    streams.push_back(std::move(stream));
  }
  w.runUntilDone([&] {
    for (const auto& r : replies)
      if (r.empty()) return false;
    return true;
  });
  for (int i = 0; i < kStreams; ++i)
    EXPECT_EQ(toString(replies[static_cast<std::size_t>(i)]),
              std::to_string(100 + i) + ":msg" + std::to_string(i));
  EXPECT_EQ(w.client_tunnel->streamsOpened(), kStreams);
}

TEST(Tunnel, ZeroRttOpenDeliversEarlyData) {
  TunnelWorld w;
  w.connectTunnels();
  Bytes got;
  transport::Stream::Ptr held;
  w.server_tunnel->setOpenHandler(
      [&](transport::Stream::Ptr stream, transport::ConnectTarget, bool) {
        held = stream;
        // Handler installed *later*: data must be buffered, not lost.
        w.sim.schedule(50 * sim::kMillisecond, [&, stream] {
          stream->setOnData([&](ByteView d) { appendBytes(got, d); });
        });
      });
  auto stream = w.client_tunnel->openStream(
      transport::ConnectTarget::byHostname("x", 1), false);
  stream->send(toBytes("rides with the open"));
  w.runUntilDone([&] { return got.size() >= 19; });
  EXPECT_EQ(toString(got), "rides with the open");
}

TEST(Tunnel, CloseBothDirections) {
  TunnelWorld w;
  w.connectTunnels();
  transport::Stream::Ptr server_stream;
  w.server_tunnel->setOpenHandler(
      [&](transport::Stream::Ptr stream, transport::ConnectTarget, bool) {
        server_stream = stream;
      });
  auto stream = w.client_tunnel->openStream(
      transport::ConnectTarget::byHostname("x", 1), true);
  bool client_saw_close = false;
  stream->setOnClose([&] { client_saw_close = true; });
  w.runUntilDone([&] { return server_stream != nullptr; });
  server_stream->close();
  w.runUntilDone([&] { return client_saw_close; });
  EXPECT_FALSE(stream->connected());
}

TEST(Tunnel, BlindingRotationPropagatesBothWays) {
  TunnelWorld w;
  w.connectTunnels();
  Bytes got;
  std::vector<transport::Stream::Ptr> server_streams;
  w.server_tunnel->setOpenHandler(
      [&](transport::Stream::Ptr stream, transport::ConnectTarget, bool) {
        server_streams.push_back(stream);  // owns it; the handler observes
        auto* held = stream.get();
        stream->setOnData([&got, held](ByteView d) {
          appendBytes(got, d);
          held->send(toBytes("ack"));
        });
      });
  auto s1 = w.client_tunnel->openStream(
      transport::ConnectTarget::byHostname("x", 1), false);
  Bytes acks;
  s1->setOnData([&](ByteView d) { appendBytes(acks, d); });
  s1->send(toBytes("before"));
  w.runUntilDone([&] { return acks.size() >= 3; });

  w.client_tunnel->rotateBlinding(3);
  s1->send(toBytes("after"));
  w.runUntilDone([&] { return acks.size() >= 6; });
  EXPECT_EQ(toString(got), "beforeafter");
  EXPECT_EQ(w.client_tunnel->blindingEpoch(), 3u);
}

TEST(Tunnel, PingPong) {
  TunnelWorld w;
  w.connectTunnels();
  bool pong = false;
  w.client_tunnel->ping([&] { pong = true; });
  w.runUntilDone([&] { return pong; });
}

// Passes bytes through to the stream beneath and keeps a copy of each
// direction: what the tunnel writes (tx) and what it reads (rx).
class WireTap final : public transport::Stream {
 public:
  static std::shared_ptr<WireTap> wrap(transport::Stream::Ptr inner) {
    auto tap = std::shared_ptr<WireTap>(new WireTap(std::move(inner)));
    std::weak_ptr<WireTap> weak = tap;
    tap->inner_->setOnData([weak](ByteView d) {
      if (auto t = weak.lock()) {
        appendBytes(t->rx, d);
        t->emitData(d);
      }
    });
    tap->inner_->setOnClose([weak] {
      if (auto t = weak.lock()) t->emitClose();
    });
    return tap;
  }

  void send(Bytes data) override {
    appendBytes(tx, data);
    inner_->send(std::move(data));
  }
  void close() override { inner_->close(); }
  bool connected() const override { return inner_->connected(); }

  Bytes tx;
  Bytes rx;

 private:
  explicit WireTap(transport::Stream::Ptr inner) : inner_(std::move(inner)) {}
  transport::Stream::Ptr inner_;
};

// FNV-1a of the raw wire bytes, both directions, of an encrypted stream's
// first frames under a fixed secret: the OPEN, then two requests and their
// echoes. Pinned before the tunnel kept one HMAC key schedule and derived
// one IV per stream end; stream keys, IVs and ciphertext must not move.
TEST(Tunnel, EncryptedStreamWireBytesGolden) {
  TunnelWorld w;
  auto client_raw = w.connectRaw();
  ASSERT_NE(client_raw, nullptr);
  const auto tap = WireTap::wrap(client_raw);
  Tunnel::Options copts;
  copts.secret = toBytes("tunnel-secret");
  w.client_tunnel = Tunnel::create(tap, w.sim, copts);
  Tunnel::Options sopts = copts;
  sopts.client_side = false;
  w.server_tunnel = Tunnel::create(w.server_raw, w.sim, sopts);
  std::vector<transport::Stream::Ptr> server_streams;
  w.server_tunnel->setOpenHandler(
      [&](transport::Stream::Ptr stream, transport::ConnectTarget, bool) {
        server_streams.push_back(stream);  // owns it; the handler observes
        auto* held = stream.get();
        stream->setOnData([held](ByteView d) {
          Bytes reply = toBytes("echo:");
          appendBytes(reply, d);
          held->send(std::move(reply));
        });
      });

  auto stream = w.client_tunnel->openStream(
      transport::ConnectTarget::byHostname("scholar.google.com", 443),
      /*passthrough=*/false);
  Bytes got;
  stream->setOnData([&](ByteView d) { appendBytes(got, d); });
  const std::string first = "GET /scholar?q=blinding HTTP/1.1\r\n\r\n";
  stream->send(toBytes(first));
  w.runUntilDone([&] { return got.size() >= 5 + first.size(); });
  stream->send(toBytes("second request"));
  w.runUntilDone([&] { return got.size() >= 10 + first.size() + 14; });
  EXPECT_EQ(toString(got), "echo:" + first + "echo:second request");

  Fnv1a tx;
  tx.add(asStringView(tap->tx));
  Fnv1a rx;
  rx.add(asStringView(tap->rx));
  EXPECT_EQ(tap->tx.size(), 140u);
  EXPECT_EQ(tap->rx.size(), 110u);
  EXPECT_EQ(tx.value(), 0x9442f6ba4c047123ULL);
  EXPECT_EQ(rx.value(), 0x2e5761a74a8ad6a1ULL);
}

// ---- full split-proxy system ----

struct ScWorld : MiniWorld {
  net::Node& dns_node{world.addUsServer("dns")};
  net::Node& origin_node{world.addUsServer("origin")};
  net::Node& domestic_node{world.addCampusServer("domestic")};
  transport::HostStack dns_stack{dns_node};
  transport::HostStack origin_stack{origin_node};
  transport::HostStack domestic_stack{domestic_node};
  dns::DnsServer dns_server{dns_stack};
  http::WebOrigin origin{origin_stack, http::PageSpec::scholarDefault()};
  std::unique_ptr<RemoteProxy> remote;
  std::unique_ptr<DomesticProxy> domestic;
  std::unique_ptr<http::Browser> browser;

  explicit ScWorld(crypto::BlindingMode mode = crypto::BlindingMode::kByteMap) {
    dns_server.addRecord("scholar.google.com", origin_node.primaryIp());
    const Bytes secret = toBytes("operator-secret");

    RemoteProxyOptions ropts;
    ropts.tunnel_secret = secret;
    ropts.blinding_mode = mode;
    ropts.dns_server = dns_node.primaryIp();
    ropts.authorized_peers = {domestic_node.primaryIp()};
    remote = std::make_unique<RemoteProxy>(server, ropts);  // on `server`

    DomesticProxyOptions dopts;
    dopts.remote = net::Endpoint{server_node.primaryIp(), 443};
    dopts.tunnel_secret = secret;
    dopts.blinding_mode = mode;
    dopts.whitelist = {"scholar.google.com"};
    domestic = std::make_unique<DomesticProxy>(domestic_stack, dopts);

    http::BrowserOptions bopts;
    bopts.dns_server = dns_node.primaryIp();
    browser = std::make_unique<http::Browser>(client, bopts);
  }

  bool installPac() {
    bool done = false, ok = false;
    browser->loadPacFrom(domestic->pacUrl(), [&](bool r) {
      done = true;
      ok = r;
    });
    runUntilDone([&] { return done; });
    return ok;
  }

  http::PageLoadResult load(const std::string& host) {
    http::PageLoadResult result;
    bool done = false;
    browser->loadPage(host, [&](http::PageLoadResult r) {
      done = true;
      result = r;
    });
    runUntilDone([&] { return done; }, 3 * sim::kMinute);
    return result;
  }
};

TEST(ScholarCloud, PacInstallAndWhitelistedPageLoad) {
  ScWorld w;
  ASSERT_TRUE(w.installPac());
  EXPECT_EQ(w.browser->decisionFor("scholar.google.com").kind,
            http::ProxyKind::kHttpProxy);
  const auto result = w.load("scholar.google.com");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GE(w.domestic->requestsProxied(), 1u);
  EXPECT_GE(w.remote->streamsServed(), 1u);
  EXPECT_EQ(w.domestic->pacDownloads(), 1u);
  EXPECT_EQ(w.domestic->usersServed(), 1u);
}

TEST(ScholarCloud, PrintableBlindingModeAlsoWorks) {
  ScWorld w(crypto::BlindingMode::kPrintable);
  ASSERT_TRUE(w.installPac());
  const auto result = w.load("scholar.google.com");
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ScholarCloud, NonWhitelistedHostIsRefusedByProxy) {
  ScWorld w;
  ASSERT_TRUE(w.installPac());
  // Force the proxy path for a non-whitelisted host.
  w.browser->setFixedProxy(
      http::ProxyDecision::httpProxy(w.domestic->proxyEndpoint()));
  const auto result = w.load("www.amazon.com");
  EXPECT_FALSE(result.ok);
  EXPECT_GE(w.domestic->requestsDenied(), 1u);
}

TEST(ScholarCloud, WhitelistIsMutableOnDemand) {
  ScWorld w;
  EXPECT_TRUE(w.domestic->isWhitelisted("scholar.google.com"));
  EXPECT_TRUE(w.domestic->isWhitelisted("sub.scholar.google.com"));
  EXPECT_FALSE(w.domestic->isWhitelisted("www.amazon.com"));
  w.domestic->addToWhitelist("arxiv.org");
  EXPECT_TRUE(w.domestic->isWhitelisted("arxiv.org"));
  w.domestic->removeFromWhitelist("arxiv.org");
  EXPECT_FALSE(w.domestic->isWhitelisted("arxiv.org"));
  // The served PAC reflects the current whitelist.
  const auto pac = w.domestic->buildPac();
  EXPECT_EQ(pac.evaluate("scholar.google.com").kind,
            http::ProxyKind::kHttpProxy);
  EXPECT_EQ(pac.evaluate("arxiv.org"), http::ProxyDecision::direct());
}

TEST(ScholarCloud, RemoteProxyGivesStrangersTheMuteTreatment) {
  ScWorld w;
  Bytes received;
  bool closed = false;
  auto sock = w.client.tcpConnect(  // client IP is NOT an authorized peer
      net::Endpoint{w.server_node.primaryIp(), 443}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
      });
  sock->setOnData([&](ByteView d) { appendBytes(received, d); });
  sock->setOnClose([&] { closed = true; });
  sock->send(Bytes(200, 0x42));  // probe garbage
  w.runUntilDone([&] { return closed; }, 2 * sim::kMinute);
  EXPECT_TRUE(received.empty());
  EXPECT_GE(w.remote->probesIgnored(), 1u);
}

TEST(ScholarCloud, HttpsRidesPassthroughWithoutDoubleEncryption) {
  ScWorld w;
  ASSERT_TRUE(w.installPac());
  const auto result = w.load("scholar.google.com");
  ASSERT_TRUE(result.ok);
  // The page was mostly fetched over CONNECT/passthrough streams; the
  // remote proxy served streams for them.
  EXPECT_GE(w.remote->streamsServed(), 2u);
}

TEST(ScholarCloud, BlindingRotationDuringOperation) {
  ScWorld w;
  ASSERT_TRUE(w.installPac());
  ASSERT_TRUE(w.load("scholar.google.com").ok);
  w.domestic->rotateBlinding(9);
  w.sim.runUntil(w.sim.now() + sim::kMinute);
  const auto again = w.load("scholar.google.com");
  EXPECT_TRUE(again.ok) << again.error;
}

// ---- deployment / legalization ----

TEST(Deployment, ApplicationCarriesDocumentsAndWhitelist) {
  ScWorld w;
  Deployment deployment(*w.domestic);
  const auto application = deployment.buildApplication();
  EXPECT_EQ(application.type, regulation::ServiceType::kWebProxy);
  EXPECT_TRUE(application.biometric_document);
  EXPECT_TRUE(application.service_documentation);
  EXPECT_TRUE(application.user_guide);
  ASSERT_EQ(application.whitelist.size(), 1u);
  EXPECT_EQ(application.whitelist[0], "scholar.google.com");
  EXPECT_EQ(application.server_address, w.domestic_node.primaryIp());
}

TEST(Deployment, RegistersThroughTcaAndInstallsIcpNumber) {
  ScWorld w;
  regulation::IcpRegistry registry;
  regulation::TcaAgency agency(w.sim, registry);
  Deployment deployment(*w.domestic);
  EXPECT_FALSE(deployment.legalized());

  bool done = false, ok = false;
  std::string detail;
  deployment.registerWithAgency(agency, [&](bool r, std::string d) {
    done = true;
    ok = r;
    detail = std::move(d);
  });
  w.sim.run(w.sim.now() + 200 * sim::kDay);
  ASSERT_TRUE(done);
  ASSERT_TRUE(ok) << detail;
  EXPECT_TRUE(deployment.legalized());
  EXPECT_EQ(w.domestic->icpNumber(), detail);
  EXPECT_TRUE(registry.isRegistered(w.domestic_node.primaryIp()));
}

TEST(Deployment, CostPerUserDropsWithUsers) {
  ScWorld w;
  Deployment deployment(*w.domestic);
  EXPECT_DOUBLE_EQ(deployment.dailyCostPerUser(), 2.2);
  ASSERT_TRUE(w.installPac());
  ASSERT_TRUE(w.load("scholar.google.com").ok);
  EXPECT_DOUBLE_EQ(deployment.dailyCostPerUser(), 2.2);  // one user
}

}  // namespace
}  // namespace sc::core

namespace sc::core {
namespace {

TEST(ScholarCloud, SocksExtensionCarriesWhitelistedTcp) {
  // §6 future work implemented: non-HTTP content through the same tunnel.
  ScWorld w;
  w.domestic->enableSocks(1080);

  // A raw echo service at the scholar origin host, port 7022 ("ssh-like").
  std::vector<transport::TcpSocket::Ptr> held;
  auto echo = w.origin_stack.tcpListen(7022, [&](transport::TcpSocket::Ptr s) {
    held.push_back(s);
    s->setOnData([s](ByteView d) { s->send(Bytes(d.begin(), d.end())); });
  });
  // DNS record exists for scholar.google.com -> origin host.

  auto connector = std::make_shared<http::SocksConnector>(
      w.client, net::Endpoint{w.domestic_node.primaryIp(), 1080});
  Bytes echoed;
  transport::Stream::Ptr keep;
  connector->connect(
      transport::ConnectTarget::byHostname("scholar.google.com", 7022),
      [&](transport::Stream::Ptr stream) {
        ASSERT_NE(stream, nullptr);
        keep = stream;
        stream->setOnData([&](ByteView d) { appendBytes(echoed, d); });
        stream->send(toBytes("non-http payload"));
      });
  w.runUntilDone([&] { return echoed.size() >= 16; });
  EXPECT_EQ(toString(echoed), "non-http payload");
  EXPECT_EQ(w.domestic->socksStreams(), 1u);
}

TEST(ScholarCloud, SocksExtensionStillEnforcesWhitelist) {
  ScWorld w;
  w.domestic->enableSocks(1080);
  auto connector = std::make_shared<http::SocksConnector>(
      w.client, net::Endpoint{w.domestic_node.primaryIp(), 1080});
  bool done = false;
  transport::Stream::Ptr got;
  connector->connect(
      transport::ConnectTarget::byHostname("www.amazon.com", 443),
      [&](transport::Stream::Ptr stream) {
        done = true;
        got = stream;
      });
  w.runUntilDone([&] { return done; });
  EXPECT_EQ(got, nullptr);
  EXPECT_GE(w.domestic->requestsDenied(), 1u);
}

TEST(ScholarCloud, AutoRotateBumpsEpochOnSchedule) {
  ScWorld w;
  ASSERT_TRUE(w.installPac());
  ASSERT_TRUE(w.load("scholar.google.com").ok);
  EXPECT_EQ(w.domestic->blindingEpoch(), 0u);
  w.domestic->autoRotateBlinding(10 * sim::kSecond);
  w.sim.runUntil(w.sim.now() + 35 * sim::kSecond);
  EXPECT_GE(w.domestic->blindingEpoch(), 3u);
  // Service still works across several rotations.
  const auto result = w.load("scholar.google.com");
  EXPECT_TRUE(result.ok) << result.error;
  w.domestic->autoRotateBlinding(0);  // stop
  const auto epoch = w.domestic->blindingEpoch();
  w.sim.runUntil(w.sim.now() + 30 * sim::kSecond);
  EXPECT_EQ(w.domestic->blindingEpoch(), epoch);
}

// Satellite observable: when a request arrives while the tunnel pool has no
// connected tunnel, every retry bumps sc.domestic.pool_saturation and (with
// tracing on) records a kPoolSaturation event — the signal the fleet
// autoscaler keys off.
TEST(ScholarCloud, PoolSaturationIsCountedAndTraced) {
  sim::Simulator sim(7);
  obs::Hub hub(sim);
  hub.tracer().enable();
  net::Network network(sim);
  net::World world(network);
  auto& dead_node = world.addUsServer("dead-remote");  // nobody listens
  auto& domestic_node = world.addCampusServer("domestic");
  transport::HostStack domestic_stack(domestic_node);
  DomesticProxyOptions dopts;
  dopts.remote = net::Endpoint{dead_node.primaryIp(), 443};
  dopts.tunnel_secret = toBytes("operator-secret");
  dopts.whitelist = {"scholar.google.com"};
  DomesticProxy proxy(domestic_stack, dopts);

  auto& client_node = world.addCampusHost("client");
  transport::HostStack client(client_node);
  bool done = false;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = client.tcpConnect(proxy.proxyEndpoint(), [&](const auto& conn) {
    const bool ok = conn != nullptr;
    ASSERT_TRUE(ok);
    http::Request req;
    req.target = "http://scholar.google.com/";
    req.headers.set("host", "scholar.google.com");
    http::HttpClient::fetchOn(*holder, sim, std::move(req), 60 * sim::kSecond,
                              [&](std::optional<http::Response>) {
                                done = true;
                              });
  });
  sim.runUntil(30 * sim::kSecond);
  EXPECT_TRUE(done);  // retries exhausted -> 502, not a hang
  EXPECT_GE(obs::registryOf(sim)->counter("sc.domestic.pool_saturation")
                ->value(),
            1u);
  bool saw_event = false;
  for (const auto& ev : hub.tracer().events())
    if (ev.type == obs::EventType::kPoolSaturation) saw_event = true;
  EXPECT_TRUE(saw_event);
}

}  // namespace
}  // namespace sc::core
