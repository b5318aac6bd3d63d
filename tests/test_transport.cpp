#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "helpers.h"
#include "transport/cipher_stream.h"
#include "transport/conn_table.h"
#include "util/hash.h"

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

// ---- wire golden and send queue ----

// Hashes every TCP segment crossing the border (direction, seq, ack, flags,
// payload) and keeps the client's data segments for inspection.
struct WireTap final : net::PacketFilter {
  Fnv1a wire;
  std::size_t segments = 0;
  std::size_t drop_client_data = 0;  // client data segments still to drop
  std::vector<std::pair<std::uint32_t, Bytes>> client_data;
  net::Ipv4 client_ip;

  Verdict onPacket(net::Packet& pkt, net::Direction dir, net::Link&) override {
    if (!pkt.isTcp()) return Verdict::kPass;
    const auto& t = pkt.tcp();
    wire.add(static_cast<std::uint64_t>(dir));
    wire.add(t.seq);
    wire.add(t.ack);
    wire.addByte(static_cast<std::uint8_t>(t.flags.syn | t.flags.ack << 1 |
                                           t.flags.fin << 2 | t.flags.rst << 3 |
                                           t.flags.psh << 4));
    wire.add(static_cast<std::uint64_t>(pkt.payload.size()));
    wire.add(std::string_view(reinterpret_cast<const char*>(pkt.payload.data()),
                              pkt.payload.size()));
    ++segments;
    if (pkt.src == client_ip && !pkt.payload.empty()) {
      client_data.emplace_back(t.seq, pkt.payload);
      if (drop_client_data > 0) {
        --drop_client_data;
        return Verdict::kDrop;
      }
    }
    return Verdict::kPass;
  }
};

Bytes pattern(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) * 7 + salt);
  return b;
}

// A bulk transfer each way over the lossy, jittered border, in uneven
// sends (one before the handshake completes), then FIN from both ends:
// MSS segmentation, PSH, RTO, fast retransmit and teardown all put their
// segments on the wire, and the wire hash pins every one of them.
TEST(Tcp, BulkTransferBothWaysWireGolden) {
  MiniWorld w(11);
  w.world.borderLink().params().loss_rate = 0.03;
  WireTap tap;
  tap.client_ip = w.client_node.primaryIp();
  w.world.borderLink().addFilter(&tap);

  const Bytes up = pattern(150 * 1000, 1);
  const Bytes down = pattern(120 * 1000 + 77, 2);
  Bytes got_up, got_down;
  TcpSocket::Ptr server_side;
  auto listener = w.server.tcpListen(7777, [&](TcpSocket::Ptr sock) {
    server_side = sock;
    sock->setOnData([&](ByteView d) {
      appendBytes(got_up, d);
      if (got_up.size() == up.size()) server_side->close();
    });
    for (std::size_t off = 0; off < down.size(); off += 30 * 1000)
      sock->send(Bytes(down.begin() + static_cast<std::ptrdiff_t>(off),
                       down.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          down.size(), off + 30 * 1000))));
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [](const auto&) {});
  sock->setOnData([&](ByteView d) {
    appendBytes(got_down, d);
    if (got_down.size() == down.size()) sock->close();
  });
  const auto third = static_cast<std::ptrdiff_t>(up.size() / 3);
  sock->send(Bytes(up.begin(), up.begin() + third));  // still dialling
  w.sim.schedule(400 * sim::kMillisecond, [&] {
    sock->send(Bytes(up.begin() + third, up.begin() + 2 * third + 5));
    sock->send(Bytes(up.begin() + 2 * third + 5, up.end()));
  });
  w.runUntilDone(
      [&] {
        return sock->state() == TcpSocket::State::kClosed &&
               server_side != nullptr &&
               server_side->state() == TcpSocket::State::kClosed;
      },
      10 * sim::kMinute);

  EXPECT_EQ(got_up, up);
  EXPECT_EQ(got_down, down);
  const auto& cs = sock->stats();
  const auto& ss = server_side->stats();
  EXPECT_GT(cs.fast_retransmits + ss.fast_retransmits, 0u);
  EXPECT_GT(cs.rtos + ss.rtos, 0u);
  EXPECT_EQ(tap.wire.value(), 0xa82dfa3cd1a19ed4ULL)
      << tap.segments << " segments";
}

// Many small sends while earlier segments are still in flight: every byte
// arrives once and in order, no segment carries more than an MSS, and a
// segment sent twice carries the same bytes both times.
TEST(Tcp, RepeatedSendsWhileSegmentsInFlight) {
  MiniWorld w;
  w.world.borderLink().params().loss_rate = 0;
  WireTap tap;
  tap.client_ip = w.client_node.primaryIp();
  w.world.borderLink().addFilter(&tap);
  Bytes received;
  auto listener = w.server.tcpListen(7777, [&](TcpSocket::Ptr sock) {
    sock->setOnData(
        [&received, sock](ByteView d) { appendBytes(received, d); });
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [](const auto&) {});
  w.runUntilDone([&] { return sock->connected(); });

  Bytes sent;
  std::uint8_t salt = 0;
  for (int i = 0; i < 200; ++i) {
    // Every 2 ms, chunks of 1..2000 bytes: some fit the window, some queue
    // behind a full one.
    w.sim.schedule(2 * i * sim::kMillisecond, [&, i] {
      const Bytes chunk = pattern(1 + static_cast<std::size_t>(i * 37 % 2000),
                                  salt++);
      appendBytes(sent, chunk);
      sock->send(chunk);
    });
  }
  w.runUntilDone(
      [&] { return !sent.empty() && received.size() >= sent.size(); },
      5 * sim::kMinute);
  EXPECT_EQ(received, sent);
  EXPECT_EQ(sock->stats().bytes_sent, sent.size());
  // Jitter reorders segments, so some are resent; every copy of a segment
  // carries the same bytes, and the distinct segments tile the stream.
  std::map<std::uint32_t, Bytes> by_seq;
  for (const auto& [seq, data] : tap.client_data) {
    EXPECT_LE(data.size(), 1400u);
    const std::uint32_t offset = seq - tap.client_data[0].first;
    const auto [it, fresh] = by_seq.emplace(offset, data);
    if (!fresh) {
      EXPECT_EQ(it->second, data) << "seq " << seq;
    }
  }
  Bytes tiled;
  for (const auto& [offset, data] : by_seq) {
    EXPECT_EQ(offset, tiled.size());
    appendBytes(tiled, data);
  }
  EXPECT_EQ(tiled, sent);
}

// The first data segment is lost, and later sends reuse the send buffer
// before it is retransmitted: the retransmission still carries exactly the
// original bytes.
TEST(Tcp, RetransmissionResendsOriginalBytesAfterBufferReuse) {
  MiniWorld w;
  w.world.borderLink().params().loss_rate = 0;
  WireTap tap;
  tap.client_ip = w.client_node.primaryIp();
  w.world.borderLink().addFilter(&tap);
  Bytes received;
  auto listener = w.server.tcpListen(7777, [&](TcpSocket::Ptr sock) {
    sock->setOnData(
        [&received, sock](ByteView d) { appendBytes(received, d); });
  });
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7777}, [](const auto&) {});
  w.runUntilDone([&] { return sock->connected(); });

  tap.drop_client_data = 1;
  const Bytes first = pattern(1000, 0x11);
  sock->send(first);  // lost
  Bytes sent = first;
  for (int i = 1; i <= 5; ++i) {
    w.sim.schedule(i * sim::kMillisecond, [&, i] {
      const Bytes chunk = pattern(1000, static_cast<std::uint8_t>(0x20 + i));
      appendBytes(sent, chunk);
      sock->send(chunk);
    });
  }
  w.runUntilDone([&] { return received.size() >= 6000; }, 5 * sim::kMinute);
  EXPECT_EQ(received, sent);
  EXPECT_GE(sock->stats().retransmissions, 1u);

  ASSERT_FALSE(tap.client_data.empty());
  const std::uint32_t lost_seq = tap.client_data.front().first;
  int copies = 0;
  for (const auto& [seq, data] : tap.client_data) {
    if (seq != lost_seq) continue;
    ++copies;
    EXPECT_EQ(data, first);
  }
  EXPECT_GE(copies, 2);  // the dropped original and its retransmission
}

// ---- ConnTable ----

using Table = ConnTable<int>;

// `ip` (low 32 bits) with a random port.
net::Endpoint endpoint(std::uint64_t ip, sim::Rng& rng) {
  return net::Endpoint{net::Ipv4(static_cast<std::uint32_t>(ip)),
                       static_cast<net::Port>(rng.uniformU64(65536))};
}

// Endpoint pairs whose mixes share their top 8 bits: all of them start
// their probe in one bucket at every capacity up to 256.
std::vector<Table::Key> collidingKeys(sim::Rng& rng, std::size_t n) {
  std::vector<Table::Key> keys;
  std::uint64_t top = 0;
  bool have_top = false;
  while (keys.size() < n) {
    const Table::Key key =
        Table::keyOf(endpoint(0x0A030100u + rng.uniformU64(4), rng),
                     endpoint(0xCB000100u + rng.uniformU64(64), rng));
    const std::uint64_t t = Table::mix(key) >> 56;
    if (!have_top) {
      top = t;
      have_top = true;
    }
    if (t == top &&
        std::find(keys.begin(), keys.end(), key) == keys.end())
      keys.push_back(key);
  }
  return keys;
}

// Seeded model check against std::map: assign (fresh and overwrite),
// erase (present, absent, and "only if it still maps to this value"),
// growth, and every key looked up after every step. Half the keys share
// one home bucket, so probe runs are long and backward-shift erase moves
// entries across them.
TEST(ConnTable, MatchesMapModelWithCollidingKeys) {
  sim::Rng rng(20240521);
  std::vector<Table::Key> keys = collidingKeys(rng, 40);
  while (keys.size() < 80) {
    keys.push_back(Table::keyOf(endpoint(rng.nextU64(), rng),
                                endpoint(rng.nextU64(), rng)));
  }
  std::vector<int> values(16);
  const auto key_less = [](const Table::Key& a, const Table::Key& b) {
    return std::pair(a.local, a.remote) < std::pair(b.local, b.remote);
  };
  std::map<Table::Key, int*, decltype(key_less)> model(key_less);
  Table table;
  std::size_t max_capacity = 0;
  for (int step = 0; step < 20000; ++step) {
    const Table::Key& key = keys[rng.uniformU64(keys.size())];
    int* value = &values[rng.uniformU64(values.size())];
    switch (rng.uniformU64(4)) {
      case 0:
      case 1:
        table.assign(key, value);
        model[key] = value;
        break;
      case 2:
        EXPECT_EQ(table.erase(key), model.erase(key) == 1);
        break;
      default: {
        const auto it = model.find(key);
        const bool match = it != model.end() && it->second == value;
        EXPECT_EQ(table.erase(key, value), match);
        if (match) model.erase(it);
        break;
      }
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    max_capacity = std::max(max_capacity, table.capacity());
    for (const auto& k : keys) {
      const auto it = model.find(k);
      ASSERT_EQ(table.find(k), it == model.end() ? nullptr : it->second)
          << "step " << step;
    }
    if (step % 997 == 0) {  // drain now and then so growth restarts
      std::size_t seen = 0;
      table.forEach([&](int*) { ++seen; });
      EXPECT_EQ(seen, model.size());
      table.clear();
      model.clear();
    }
  }
  EXPECT_GE(max_capacity, 128u);
}

// The rule HostStack::forgetSocket relies on: a socket that took over a key
// keeps it when the socket it replaced goes away.
TEST(ConnTable, NewerSocketKeepsTheKey) {
  const Table::Key key =
      Table::keyOf(net::Endpoint{net::Ipv4(10, 3, 1, 2), 49152},
                   net::Endpoint{net::Ipv4(203, 0, 1, 1), 443});
  int older = 1, newer = 2;
  Table table;
  table.assign(key, &older);
  table.assign(key, &newer);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.erase(key, &older));
  EXPECT_EQ(table.find(key), &newer);
  EXPECT_TRUE(table.erase(key, &newer));
  EXPECT_EQ(table.find(key), nullptr);
  EXPECT_EQ(table.size(), 0u);
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
