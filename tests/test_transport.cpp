#include <gtest/gtest.h>

#include "helpers.h"
#include "transport/cipher_stream.h"

namespace sc::transport {
namespace {

using test::MiniWorld;

struct EchoServer {
  TcpListener::Ptr listener;
  std::vector<TcpSocket::Ptr> accepted;

  explicit EchoServer(HostStack& stack, net::Port port = 7777) {
    listener = stack.tcpListen(port, [this](TcpSocket::Ptr sock) {
      accepted.push_back(sock);
      sock->setOnData([sock](ByteView data) {
        sock->send(Bytes(data.begin(), data.end()));
      });
    });
  }
};

TEST(Tcp, ConnectCompletesHandshake) {
  MiniWorld w;
  EchoServer echo(w.server);
  bool connected = false, ok = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto& conn) {
        const bool r = conn != nullptr;
        connected = true;
        ok = r;
      });
  w.runUntilDone([&] { return connected; });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(sock->connected());
  EXPECT_EQ(sock->state(), TcpSocket::State::kEstablished);
}

TEST(Tcp, ConnectToClosedPortFailsWithRst) {
  MiniWorld w;
  bool connected = false, ok = true;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 9999}, [&](const auto& conn) {
        const bool r = conn != nullptr;
        connected = true;
        ok = r;
      });
  w.runUntilDone([&] { return connected; });
  EXPECT_FALSE(ok);
}

TEST(Tcp, EchoesSmallPayload) {
  MiniWorld w;
  EchoServer echo(w.server);
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto& conn) {
        const bool ok = conn != nullptr;
        ASSERT_TRUE(ok);
      });
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->send(toBytes("hello tcp"));
  w.runUntilDone([&] { return received.size() >= 9; });
  EXPECT_EQ(toString(received), "hello tcp");
}

TEST(Tcp, TransfersLargePayloadWithSegmentation) {
  MiniWorld w;
  EchoServer echo(w.server);
  Bytes sent(200 * 1000);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = static_cast<std::uint8_t>(i * 7);
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto&) {});
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->send(sent);
  w.runUntilDone([&] { return received.size() >= sent.size(); },
                 5 * sim::kMinute);
  EXPECT_EQ(received, sent);
  EXPECT_GT(sock->stats().segments_sent, sent.size() / 1400);
}

TEST(Tcp, RecoversFromHeavyLoss) {
  MiniWorld w;
  // Make the trans-Pacific hop very lossy.
  w.world.borderLink().params().loss_rate = 0.05;
  EchoServer echo(w.server);
  Bytes sent(60 * 1000, 0xAB);
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto&) {});
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->send(sent);
  w.runUntilDone([&] { return received.size() >= sent.size(); },
                 10 * sim::kMinute);
  EXPECT_EQ(received, sent);
  EXPECT_GT(sock->stats().retransmissions, 0u);
}

TEST(Tcp, FinClosesBothSides) {
  MiniWorld w;
  TcpSocket::Ptr server_side;
  bool server_closed = false;
  auto listener = w.server.tcpListen(7777, [&](TcpSocket::Ptr sock) {
    server_side = sock;
    sock->setOnClose([&] { server_closed = true; });
  });
  bool connected = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777},
      [&](const auto&) { connected = true; });
  w.runUntilDone([&] { return connected; });
  sock->close();
  w.runUntilDone([&] { return server_closed; });
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, RstAbortsPeer) {
  MiniWorld w;
  TcpSocket::Ptr server_side;
  bool server_closed = false;
  auto listener = w.server.tcpListen(7777, [&](TcpSocket::Ptr sock) {
    server_side = sock;
    sock->setOnClose([&] { server_closed = true; });
  });
  bool connected = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777},
      [&](const auto&) { connected = true; });
  w.runUntilDone([&] { return connected; });
  sock->abort();
  w.runUntilDone([&] { return server_closed; });
}

TEST(Tcp, SrttConvergesNearPathRtt) {
  MiniWorld w;
  EchoServer echo(w.server);
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto&) {});
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->send(Bytes(50 * 1000, 1));
  w.runUntilDone([&] { return received.size() >= 50 * 1000; },
                 5 * sim::kMinute);
  EXPECT_GT(sock->srtt(), 100 * sim::kMillisecond);
  EXPECT_LT(sock->srtt(), 400 * sim::kMillisecond);
}

TEST(Tcp, MeasureTagPropagatesToServerSide) {
  MiniWorld w;
  EchoServer echo(w.server);
  Bytes received;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [&](const auto&) {}, 77);
  sock->setOnData([&](ByteView data) { appendBytes(received, data); });
  sock->send(toBytes("tag me"));
  w.runUntilDone([&] { return received.size() >= 6; });
  const auto stats = w.network.tagStats(77);
  EXPECT_GT(stats.originated, 4u);  // both directions carry the tag
  EXPECT_EQ(w.network.tagStats(12345).originated, 0u);
}

TEST(Tcp, ManyConcurrentConnectionsStayIsolated) {
  MiniWorld w;
  EchoServer echo(w.server);
  constexpr int kConns = 20;
  std::vector<TcpSocket::Ptr> socks;
  std::vector<Bytes> received(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto sock = w.client.tcpConnect(
        net::Endpoint{w.server_node.primaryIp(), 7777}, [](const auto&) {});
    sock->setOnData([&received, i](ByteView data) {
      appendBytes(received[static_cast<std::size_t>(i)], data);
    });
    sock->send(Bytes(100, static_cast<std::uint8_t>(i)));
    socks.push_back(std::move(sock));
  }
  w.runUntilDone([&] {
    for (const auto& r : received)
      if (r.size() < 100) return false;
    return true;
  });
  for (int i = 0; i < kConns; ++i)
    EXPECT_EQ(received[static_cast<std::size_t>(i)],
              Bytes(100, static_cast<std::uint8_t>(i)));
}

// ---- UDP ----

TEST(Udp, SendAndReceive) {
  MiniWorld w;
  Bytes got;
  net::Endpoint got_from;
  w.server.udpBind(5353, [&](net::Endpoint from, ByteView data,
                             std::uint32_t) {
    got_from = from;
    got.assign(data.begin(), data.end());
  });
  w.client.udpSend(40000, net::Endpoint{w.server_node.primaryIp(), 5353},
                   toBytes("datagram"));
  w.runUntilDone([&] { return !got.empty(); });
  EXPECT_EQ(toString(got), "datagram");
  EXPECT_EQ(got_from.ip, w.client_node.primaryIp());
  EXPECT_EQ(got_from.port, 40000);
}

TEST(Udp, UnboundPortDropsSilently) {
  MiniWorld w;
  w.client.udpSend(40000, net::Endpoint{w.server_node.primaryIp(), 1}, {});
  w.sim.run(sim::kMinute);  // nothing crashes, nothing delivered
  SUCCEED();
}

// ---- CpuQueue (the Fig. 7 server model) ----

TEST(CpuQueue, SerializesWork) {
  sim::Simulator sim;
  CpuQueue cpu(sim, 1e9);  // 1 GHz
  std::vector<sim::Time> done_at;
  for (int i = 0; i < 3; ++i)
    cpu.submit(1e6, [&] { done_at.push_back(sim.now()); });  // 1 ms each
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_NEAR(static_cast<double>(done_at[0]), 1e3, 50.0);
  EXPECT_NEAR(static_cast<double>(done_at[1]), 2e3, 50.0);
  EXPECT_NEAR(static_cast<double>(done_at[2]), 3e3, 50.0);
}

TEST(CpuQueue, IdleGapsDontAccumulate) {
  sim::Simulator sim;
  CpuQueue cpu(sim, 1e9);
  sim::Time done = 0;
  cpu.submit(1e6, [&] {});
  sim.runUntil(10 * sim::kMillisecond);
  cpu.submit(1e6, [&] { done = sim.now(); });
  sim.run();
  // The second job starts fresh at t=10ms, not back-to-back with the first.
  EXPECT_NEAR(static_cast<double>(done), 11e3, 100.0);
}

// ---- CipherStream ----

TEST(CipherStream, EncryptsInTransitAndDecryptsAtPeer) {
  MiniWorld w;
  const Bytes key(32, 0x11);
  Bytes server_plain;
  Bytes server_wire;
  TcpSocket::Ptr server_raw;
  transport::Stream::Ptr server_cipher;
  auto listener = w.server.tcpListen(7000, [&](TcpSocket::Ptr sock) {
    server_raw = sock;
    server_cipher = CipherStream::wrap(sock, key, Bytes(16, 0x22));
    server_cipher->setOnData(
        [&](ByteView data) { appendBytes(server_plain, data); });
  });

  w.client.tcpConnect(net::Endpoint{w.server_node.primaryIp(), 7000},
                      [&](const auto& conn) {
                        const bool ok = conn != nullptr;
                        ASSERT_TRUE(ok);
                        auto cipher = CipherStream::wrap(
                            conn, key, Bytes(16, 0x33));
                        cipher->send(toBytes("secret message"));
                        // keep alive via capture
                        conn->setOnClose([cipher] {});
                      });
  w.runUntilDone([&] { return server_plain.size() >= 14; });
  EXPECT_EQ(toString(server_plain), "secret message");
}

TEST(CipherStream, RoundTripsBothDirections) {
  MiniWorld w;
  const Bytes key(32, 0x44);
  transport::Stream::Ptr server_cipher;
  auto listener = w.server.tcpListen(7000, [&](TcpSocket::Ptr sock) {
    server_cipher = CipherStream::wrap(sock, key, Bytes(16, 1));
    server_cipher->setOnData([&](ByteView data) {
      server_cipher->send(Bytes(data.begin(), data.end()));  // echo
    });
  });
  Bytes echoed;
  transport::Stream::Ptr client_cipher;
  w.client.tcpConnect(net::Endpoint{w.server_node.primaryIp(), 7000},
                      [&](const auto& conn) {
                        const bool ok = conn != nullptr;
                        ASSERT_TRUE(ok);
                        client_cipher = CipherStream::wrap(
                            conn, key, Bytes(16, 2));
                        client_cipher->setOnData([&](ByteView d) {
                          appendBytes(echoed, d);
                        });
                        client_cipher->send(Bytes(5000, 0x5A));
                      });
  w.runUntilDone([&] { return echoed.size() >= 5000; });
  EXPECT_EQ(echoed, Bytes(5000, 0x5A));
}

// ---- Stream pending-buffer semantics ----

TEST(Stream, BuffersDataUntilHandlerInstalled) {
  MiniWorld w;
  TcpSocket::Ptr server_side;
  auto listener = w.server.tcpListen(7000, [&](TcpSocket::Ptr sock) {
    server_side = sock;  // deliberately no onData handler yet
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7000}, [&](const auto&) {});
  sock->send(toBytes("early bytes"));
  w.runUntilDone([&] {
    return server_side != nullptr &&
           server_side->stats().bytes_received >= 11;
  });
  Bytes late;
  server_side->setOnData([&](ByteView data) { appendBytes(late, data); });
  EXPECT_EQ(toString(late), "early bytes");
}

}  // namespace
}  // namespace sc::transport
