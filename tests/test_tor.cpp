#include <gtest/gtest.h>

#include "dns/server.h"
#include "helpers.h"
#include "http/socks.h"
#include "tor/client.h"
#include "util/hash.h"

namespace sc::tor {
namespace {

using test::MiniWorld;

// ---- cells ----

TEST(Cells, EncodePadsToFixedSize) {
  Cell cell;
  cell.circ_id = 42;
  cell.cmd = CellCommand::kCreate;
  cell.payload = Bytes(32, 7);
  const Bytes wire = encodeCell(cell);
  EXPECT_EQ(wire.size(), kCellSize);
}

TEST(Cells, ReaderReassemblesAcrossChunkBoundaries) {
  Cell a, b;
  a.circ_id = 1;
  a.cmd = CellCommand::kRelay;
  a.payload = Bytes(100, 0xAA);
  b.circ_id = 2;
  b.cmd = CellCommand::kDestroy;
  Bytes wire = encodeCell(a);
  appendBytes(wire, encodeCell(b));

  CellReader reader;
  std::vector<Cell> got;
  for (std::size_t off = 0; off < wire.size(); off += 97) {
    const std::size_t n = std::min<std::size_t>(97, wire.size() - off);
    for (auto& c : reader.feed(ByteView(wire.data() + off, n)))
      got.push_back(std::move(c));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].circ_id, 1u);
  EXPECT_EQ(got[0].payload, Bytes(100, 0xAA));
  EXPECT_EQ(got[1].cmd, CellCommand::kDestroy);
}

TEST(Cells, RelayPayloadRoundTrips) {
  RelayPayload relay;
  relay.cmd = RelayCommand::kBegin;
  relay.stream_id = 7;
  relay.data = toBytes("target");
  const auto decoded = decodeRelayPayload(encodeRelayPayload(relay));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->cmd, RelayCommand::kBegin);
  EXPECT_EQ(decoded->stream_id, 7);
  EXPECT_EQ(decoded->data, toBytes("target"));
}

TEST(Cells, EncryptedRelayPayloadIsNotRecognized) {
  RelayPayload relay;
  relay.data = toBytes("data");
  Bytes encoded = encodeRelayPayload(relay);
  HopCrypto hop = HopCrypto::fromKeyMaterial(Bytes(32, 1));
  const Bytes wrapped = hop.forward->encrypt(encoded);
  EXPECT_FALSE(decodeRelayPayload(wrapped).has_value());
}

TEST(Cells, OnionLayersPeelInOrder) {
  RelayPayload relay;
  relay.cmd = RelayCommand::kData;
  relay.data = toBytes("through three hops");
  Bytes payload = encodeRelayPayload(relay);

  // Client side: encrypt exit-first.
  HopCrypto client_hops[3] = {HopCrypto::fromKeyMaterial(Bytes(32, 1)),
                              HopCrypto::fromKeyMaterial(Bytes(32, 2)),
                              HopCrypto::fromKeyMaterial(Bytes(32, 3))};
  for (int i = 2; i >= 0; --i)
    payload = client_hops[i].forward->encrypt(payload);

  // Relay side: peel guard, middle, exit.
  HopCrypto relay_hops[3] = {HopCrypto::fromKeyMaterial(Bytes(32, 1)),
                             HopCrypto::fromKeyMaterial(Bytes(32, 2)),
                             HopCrypto::fromKeyMaterial(Bytes(32, 3))};
  payload = relay_hops[0].forward->decrypt(payload);
  EXPECT_FALSE(decodeRelayPayload(payload).has_value());
  payload = relay_hops[1].forward->decrypt(payload);
  EXPECT_FALSE(decodeRelayPayload(payload).has_value());
  payload = relay_hops[2].forward->decrypt(payload);
  const auto decoded = decodeRelayPayload(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->data, toBytes("through three hops"));
}

// ---- directory ----

TEST(Directory, ConsensusRoundTrips) {
  std::vector<RelayDescriptor> relays = {
      {"guard0", net::Ipv4(198, 18, 0, 1), 9001, true, false},
      {"exit0", net::Ipv4(198, 18, 0, 2), 9001, false, true},
  };
  const auto parsed = parseConsensus(serializeConsensus(relays));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].nickname, "guard0");
  EXPECT_TRUE((*parsed)[0].guard);
  EXPECT_FALSE((*parsed)[0].exit_node);
  EXPECT_TRUE((*parsed)[1].exit_node);
  EXPECT_FALSE(parseConsensus("garbage").has_value());
}

// ---- full Tor network in a mini world ----

struct TorWorld : MiniWorld {
  net::Node& dns_node{world.addUsServer("dns")};
  net::Node& web_node{world.addUsServer("web")};
  transport::HostStack dns_stack{dns_node};
  transport::HostStack web_stack{web_node};
  dns::DnsServer dns_server{dns_stack};
  transport::TcpListener::Ptr echo_listener;

  struct RelayHost {
    std::unique_ptr<transport::HostStack> stack;
    std::unique_ptr<TorRelay> relay;
  };
  std::vector<RelayHost> relays;
  std::vector<RelayDescriptor> consensus;

  std::unique_ptr<transport::HostStack> bridge_stack;
  std::unique_ptr<TorRelay> bridge;
  std::unique_ptr<MeekServer> meek_server;
  std::unique_ptr<transport::HostStack> cdn_stack;
  std::unique_ptr<FrontedCdn> cdn;
  net::Ipv4 cdn_ip;

  TorWorld() {
    dns_server.addRecord("echo.test", web_node.primaryIp());
    echo_listener = web_stack.tcpListen(7000, [](transport::TcpSocket::Ptr s) {
      s->setOnData([s](ByteView d) { s->send(Bytes(d.begin(), d.end())); });
    });
    addRelay("guard0", true, false);
    addRelay("middle0", false, false);
    addRelay("exit0", false, true);

    auto& bridge_node = world.addRelay("bridge0");
    bridge_stack = std::make_unique<transport::HostStack>(bridge_node);
    TorRelayOptions bopts;
    bopts.nickname = "bridge0";
    bopts.dns_server = dns_node.primaryIp();
    bridge = std::make_unique<TorRelay>(*bridge_stack, bopts);
    meek_server = std::make_unique<MeekServer>(
        *bridge_stack, net::Endpoint{bridge_node.primaryIp(), kOrPort});

    auto& cdn_node = world.addCdnFront("cdn");
    cdn_ip = cdn_node.primaryIp();
    cdn_stack = std::make_unique<transport::HostStack>(cdn_node);
    cdn = std::make_unique<FrontedCdn>(*cdn_stack, "cdn.front.test");
    cdn->addOrigin("meek.reflect.test",
                   net::Endpoint{bridge_node.primaryIp(), 8443});
  }

  void addRelay(const std::string& nick, bool guard, bool exit) {
    RelayHost host;
    auto& node = world.addRelay(nick);
    host.stack = std::make_unique<transport::HostStack>(node);
    TorRelayOptions opts;
    opts.nickname = nick;
    opts.allow_exit = exit;
    opts.dns_server = dns_node.primaryIp();
    host.relay = std::make_unique<TorRelay>(*host.stack, opts);
    consensus.push_back(host.relay->descriptor(guard, exit));
    relays.push_back(std::move(host));
  }

  TorClientOptions clientOptions(bool direct_guard_allowed) {
    TorClientOptions opts;
    opts.directory = net::Endpoint{net::Ipv4(203, 0, 1, 250), 80};  // dead
    opts.cached_consensus = consensus;
    opts.try_direct_guard = direct_guard_allowed;
    opts.meek.cdn = net::Endpoint{cdn_ip, 443};
    opts.meek.front_domain = "cdn.front.test";
    opts.meek.bridge_host_header = "meek.reflect.test";
    return opts;
  }
};

TEST(TorClient, BootstrapsDirectlyWhenGuardsReachable) {
  TorWorld w;
  TorClient client(w.client, w.clientOptions(true));
  bool done = false, ok = false;
  client.bootstrap([&](bool r) {
    done = true;
    ok = r;
  });
  w.runUntilDone([&] { return done; }, 5 * sim::kMinute);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(client.ready());
  EXPECT_FALSE(client.usedMeek());  // nothing blocked in this world
  EXPECT_EQ(client.circuitsBuilt(), 1);
}

TEST(TorClient, StreamsEchoThroughCircuit) {
  TorWorld w;
  TorClient client(w.client, w.clientOptions(true));
  bool ready = false;
  client.bootstrap([&](bool r) { ready = r; });
  w.runUntilDone([&] { return ready; }, 5 * sim::kMinute);

  auto connector = std::make_shared<http::SocksConnector>(
      w.client, client.socksEndpoint());
  Bytes echoed;
  transport::Stream::Ptr keep;
  connector->connect(transport::ConnectTarget::byHostname("echo.test", 7000),
                     [&](transport::Stream::Ptr stream) {
                       ASSERT_NE(stream, nullptr);
                       keep = stream;
                       stream->setOnData(
                           [&](ByteView d) { appendBytes(echoed, d); });
                       stream->send(toBytes("onion routed"));
                     });
  w.runUntilDone([&] { return echoed.size() >= 12; }, 5 * sim::kMinute);
  EXPECT_EQ(toString(echoed), "onion routed");
  // The exit did the name resolution and the upstream connection.
  EXPECT_EQ(w.relays[2].relay->streamsExited(), 1u);
}

TEST(TorClient, LargeTransferSurvivesCellChunking) {
  TorWorld w;
  TorClient client(w.client, w.clientOptions(true));
  bool ready = false;
  client.bootstrap([&](bool r) { ready = r; });
  w.runUntilDone([&] { return ready; }, 5 * sim::kMinute);

  auto connector = std::make_shared<http::SocksConnector>(
      w.client, client.socksEndpoint());
  Bytes sent(20000);
  for (std::size_t i = 0; i < sent.size(); ++i)
    sent[i] = static_cast<std::uint8_t>(i * 11);
  Bytes echoed;
  transport::Stream::Ptr keep;
  connector->connect(transport::ConnectTarget::byHostname("echo.test", 7000),
                     [&](transport::Stream::Ptr stream) {
                       ASSERT_NE(stream, nullptr);
                       keep = stream;
                       stream->setOnData(
                           [&](ByteView d) { appendBytes(echoed, d); });
                       stream->send(sent);
                     });
  w.runUntilDone([&] { return echoed.size() >= sent.size(); },
                 10 * sim::kMinute);
  EXPECT_EQ(echoed, sent);
}

TEST(TorClient, FallsBackToMeekWhenGuardsBlocked) {
  TorWorld w;
  // Black-hole every public relay (what the GFW does with the consensus).
  struct RelayBlocker : net::PacketFilter {
    std::vector<net::Ipv4> blocked;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      for (const auto ip : blocked)
        if (pkt.dst == ip || pkt.src == ip) return Verdict::kDrop;
      return Verdict::kPass;
    }
  };
  RelayBlocker blocker;
  for (const auto& r : w.consensus) blocker.blocked.push_back(r.address);
  w.world.borderLink().addFilter(&blocker);

  TorClient client(w.client, w.clientOptions(true));
  bool done = false, ok = false;
  const sim::Time t0 = w.sim.now();
  client.bootstrap([&](bool r) {
    done = true;
    ok = r;
  });
  w.runUntilDone([&] { return done; }, 10 * sim::kMinute);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(client.usedMeek());
  // Bootstrap burned real time on the dead directory + dead guard first.
  EXPECT_GT(w.sim.now() - t0, 5 * sim::kSecond);
  EXPECT_GT(client.lastBootstrapDuration(), 5 * sim::kSecond);

  // And the circuit still works, through the front.
  auto connector = std::make_shared<http::SocksConnector>(
      w.client, client.socksEndpoint());
  Bytes echoed;
  transport::Stream::Ptr keep;
  connector->connect(transport::ConnectTarget::byHostname("echo.test", 7000),
                     [&](transport::Stream::Ptr stream) {
                       ASSERT_NE(stream, nullptr);
                       keep = stream;
                       stream->setOnData(
                           [&](ByteView d) { appendBytes(echoed, d); });
                       stream->send(toBytes("fronted"));
                     });
  w.runUntilDone([&] { return echoed.size() >= 7; }, 5 * sim::kMinute);
  EXPECT_EQ(toString(echoed), "fronted");
}

TEST(Meek, ClientStreamCarriesBytesBothWays) {
  TorWorld w;
  // Talk to the bridge's OR port via meek directly: send a CREATE cell and
  // expect a CREATED back.
  MeekClientOptions mopts = w.clientOptions(false).meek;
  auto meek = MeekClient::open(w.client, mopts);
  // The bridge speaks TLS on its OR port; the meek server handles that leg,
  // so the client-side bytes here are raw cells.
  Cell create;
  create.circ_id = 9;
  create.cmd = CellCommand::kCreate;
  create.payload = Bytes(32, 5);
  Bytes received;
  meek->setOnData([&](ByteView d) { appendBytes(received, d); });
  meek->send(encodeCell(create));
  w.runUntilDone([&] { return received.size() >= kCellSize; },
                 5 * sim::kMinute);
  CellReader reader;
  const auto cells = reader.feed(received);
  ASSERT_GE(cells.size(), 1u);
  EXPECT_EQ(cells[0].cmd, CellCommand::kCreated);
  EXPECT_EQ(cells[0].circ_id, 9u);
  EXPECT_GT(meek->pollsSent(), 0u);
}

TEST(Relay, DestroyTearsDownCircuitState) {
  TorWorld w;
  TorClient client(w.client, w.clientOptions(true));
  bool ready = false;
  client.bootstrap([&](bool r) { ready = r; });
  w.runUntilDone([&] { return ready; }, 5 * sim::kMinute);
  EXPECT_GT(w.relays[0].relay->activeCircuits(), 0u);
  EXPECT_GT(w.relays[0].relay->cellsProcessed(), 0u);
}

}  // namespace
}  // namespace sc::tor

namespace sc::tor {
namespace {

TEST(Meek, CdnRejectsUnknownHostHeader) {
  TorWorld w;
  MeekClientOptions mopts = w.clientOptions(false).meek;
  mopts.bridge_host_header = "not-registered.example";
  auto meek = MeekClient::open(w.client, mopts);
  bool closed = false;
  meek->setOnClose([&] { closed = true; });
  meek->send(Bytes(64, 1));
  // The CDN 404s every poll; the client keeps retrying without crashing and
  // never delivers data.
  Bytes received;
  meek->setOnData([&](ByteView d) { appendBytes(received, d); });
  w.sim.runUntil(w.sim.now() + 10 * sim::kSecond);
  EXPECT_TRUE(received.empty());
  meek->close();
}

// ---- cell wire bytes and hostile cells ----

Cell relayCell(std::uint32_t circ, RelayCommand cmd, std::uint16_t stream,
               Bytes data) {
  RelayPayload relay;
  relay.cmd = cmd;
  relay.stream_id = stream;
  relay.data = std::move(data);
  Cell cell;
  cell.circ_id = circ;
  cell.cmd = CellCommand::kRelay;
  cell.payload = encodeRelayPayload(relay);
  return cell;
}

// The cells of one short circuit life, each way: CREATE/CREATED, BEGIN,
// CONNECTED, DATA of 1 byte, of a full cell and of nothing, END, DESTROY.
std::vector<Cell> clientCells() {
  Cell create;
  create.circ_id = 0x80000001;
  create.cmd = CellCommand::kCreate;
  create.payload = Bytes(32, 0x5a);
  Bytes full(kRelayDataMax);
  for (std::size_t i = 0; i < full.size(); ++i)
    full[i] = static_cast<std::uint8_t>(i * 7);
  Cell destroy;
  destroy.circ_id = 0x80000001;
  destroy.cmd = CellCommand::kDestroy;
  return {create,
          relayCell(0x80000001, RelayCommand::kBegin, 1,
                    toBytes("scholar.google.com:443")),
          relayCell(0x80000001, RelayCommand::kData, 1, toBytes("G")),
          relayCell(0x80000001, RelayCommand::kData, 1, full),
          relayCell(0x80000001, RelayCommand::kEnd, 1, {}),
          destroy};
}

std::vector<Cell> relayCells() {
  Cell created;
  created.circ_id = 0x80000001;
  created.cmd = CellCommand::kCreated;
  created.payload = Bytes(32, 0xa5);
  return {created,
          relayCell(0x80000001, RelayCommand::kConnected, 1, {}),
          relayCell(0x80000001, RelayCommand::kData, 1, Bytes(300, 0x33)),
          relayCell(0x80000001, RelayCommand::kExtended, 0, Bytes(32, 1))};
}

Bytes encodeAll(const std::vector<Cell>& cells) {
  Bytes out;
  for (const Cell& c : cells) appendBytes(out, encodeCell(c));
  return out;
}

// Pinned before the cell encoder and reader stopped copying.
TEST(Cells, CellAndRelayPayloadWireBytesGolden) {
  Fnv1a h;
  for (const auto& cells : {clientCells(), relayCells()}) {
    for (const Cell& c : cells) {
      const Bytes relay = c.cmd == CellCommand::kRelay ? c.payload : Bytes{};
      h.add(asStringView(relay));
      h.add(asStringView(encodeCell(c)));
    }
  }
  EXPECT_EQ(h.value(), 0x31d451c7411a364fULL);
}

// The cell streams above, sent each way over TCP across the border; the
// tap's per-direction payloads seed the hostile corpus.
test::BorderPayloads cellLinkWire() {
  test::BorderPayloads tap;
  MiniWorld w;
  w.world.borderLink().addFilter(&tap);
  transport::Stream::Ptr server_side;
  auto listener = w.server.tcpListen(9001, [&](transport::TcpSocket::Ptr s) {
    server_side = s;
    s->setOnData([s](ByteView) { s->send(encodeAll(relayCells())); });
  });
  transport::Stream::Ptr client_side;
  Bytes got;
  w.client.tcpConnect(net::Endpoint{w.server_node.primaryIp(), 9001},
                      [&](const auto& conn) {
                        client_side = conn;
                        if (conn == nullptr) return;
                        conn->setOnData(
                            [&got](ByteView d) { appendBytes(got, d); });
                        conn->send(encodeAll(clientCells()));
                      });
  const std::size_t reply = relayCells().size() * kCellSize;
  w.runUntilDone([&] { return got.size() >= reply; });
  return tap;
}

Bytes cellHeader(std::uint32_t circ, std::uint8_t cmd, std::uint16_t len) {
  Bytes out;
  appendU32(out, circ);
  appendU8(out, cmd);
  appendU16(out, len);
  return out;
}

// Both directions of the real cell link, then hostile cells: truncated,
// a length past the payload, an unknown command, relay payloads whose
// length runs past the cell, a wrong magic, and bare relay payloads.
std::vector<Bytes> hostileCellCorpus() {
  const test::BorderPayloads wire = cellLinkWire();
  std::vector<Bytes> corpus = {wire.by_dir[0], wire.by_dir[1]};
  corpus.push_back({});
  corpus.push_back(Bytes(kCellSize - 1, 0));
  corpus.push_back(Bytes(2 * kCellSize + 3, 0xff));
  Bytes long_len = cellHeader(7, 3, 0xffff);
  long_len.resize(kCellSize, 0x41);
  corpus.push_back(long_len);
  Bytes odd_cmd = cellHeader(7, 0xee, 4);
  odd_cmd.resize(kCellSize, 0);
  corpus.push_back(odd_cmd);
  Bytes relay_over;
  appendU32(relay_over, kRelayMagic);
  appendU8(relay_over, 3);
  appendU16(relay_over, 1);
  appendU16(relay_over, 0xffff);
  corpus.push_back(relay_over);
  Bytes relay_cell = cellHeader(7, 3, static_cast<std::uint16_t>(
                                          relay_over.size()));
  appendBytes(relay_cell, relay_over);
  relay_cell.resize(kCellSize, 0);
  corpus.push_back(relay_cell);
  Bytes bad_magic = relay_over;
  bad_magic[0] ^= 1;
  corpus.push_back(bad_magic);
  corpus.push_back(encodeRelayPayload(RelayPayload{}));
  return corpus;
}

// Everything the reader and the relay decoder report for `wire` fed in
// `chunk`-byte pieces (0: random pieces from `rng`).
struct CellFeedResult {
  std::vector<Cell> cells;
  std::vector<std::optional<RelayPayload>> relays;
};

CellFeedResult feedCells(ByteView wire, std::size_t chunk, sim::Rng& rng) {
  CellFeedResult r;
  CellReader reader;
  const auto take = [&](ByteView part) {
    for (Cell& c : reader.feed(part)) {
      r.relays.push_back(decodeRelayPayload(c.payload));
      r.cells.push_back(std::move(c));
    }
  };
  if (chunk == 0) {
    test::feedInRandomChunks(wire, 3 * kCellSize, rng, take);
  } else {
    for (std::size_t off = 0; off < wire.size(); off += chunk)
      take(wire.subspan(off, std::min(chunk, wire.size() - off)));
  }
  return r;
}

void addRelay(Fnv1a& h, const std::optional<RelayPayload>& relay) {
  h.addByte(relay.has_value() ? 1 : 0);
  if (!relay.has_value()) return;
  h.addByte(static_cast<std::uint8_t>(relay->cmd));
  h.add(relay->stream_id);
  h.add(static_cast<std::uint64_t>(relay->data.size()));
  h.add(asStringView(relay->data));
}

// Pinned before the reader consumed once per feed: each corpus entry fed
// whole and in 1-, 7-, 97- and 514-byte pieces, and decoded directly as a
// relay payload.
TEST(Cells, HostileCellCorpusDigest) {
  sim::Rng unused(1);
  Fnv1a h;
  for (const Bytes& wire : hostileCellCorpus()) {
    addRelay(h, decodeRelayPayload(wire));
    for (const std::size_t chunk : {std::max<std::size_t>(wire.size(), 1),
                                    std::size_t{1}, std::size_t{7},
                                    std::size_t{97}, kCellSize}) {
      const CellFeedResult r = feedCells(wire, chunk, unused);
      h.add(static_cast<std::uint64_t>(r.cells.size()));
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        h.add(r.cells[i].circ_id);
        h.addByte(static_cast<std::uint8_t>(r.cells[i].cmd));
        h.add(static_cast<std::uint64_t>(r.cells[i].payload.size()));
        h.add(asStringView(r.cells[i].payload));
        addRelay(h, r.relays[i]);
      }
    }
  }
  EXPECT_EQ(h.value(), 0xd245da32bd53ea1bULL);
}

// Seeded mutations fed whole and in random pieces: nothing crashes, the
// chunking changes nothing, every cell re-encodes to what was read, and
// every recognized relay payload round-trips.
TEST(Cells, MutatedCellsAreSurvived) {
  const std::vector<Bytes> seeds = hostileCellCorpus();
  static constexpr char kSpice[] = "\x00\x01\x02\x03\x04\xff\x52\x43\x80";
  sim::Rng rng(0xce11ULL);
  std::uint64_t relays = 0;
  constexpr int kIterations = 20000;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes wire =
        test::mutate(seeds, std::string_view(kSpice, sizeof kSpice - 1), rng);
    const CellFeedResult whole =
        feedCells(wire, std::max<std::size_t>(wire.size(), 1), rng);
    const CellFeedResult chunked = feedCells(wire, 0, rng);
    ASSERT_EQ(whole.cells.size(), wire.size() / kCellSize);
    ASSERT_EQ(chunked.cells.size(), whole.cells.size());
    for (std::size_t c = 0; c < whole.cells.size(); ++c) {
      const Cell& cell = whole.cells[c];
      ASSERT_EQ(chunked.cells[c].circ_id, cell.circ_id);
      ASSERT_EQ(chunked.cells[c].payload, cell.payload);
      ASSERT_LE(cell.payload.size(), kCellPayloadSize);
      const Bytes again = encodeCell(cell);
      ASSERT_EQ(again.size(), kCellSize);
      const auto reread = CellReader().feed(again);
      ASSERT_EQ(reread.size(), 1u);
      ASSERT_EQ(reread[0].payload, cell.payload);
      if (const auto& relay = whole.relays[c]) {
        ++relays;
        const auto round = decodeRelayPayload(encodeRelayPayload(*relay));
        ASSERT_TRUE(round.has_value());
        ASSERT_EQ(round->data, relay->data);
        ASSERT_EQ(round->stream_id, relay->stream_id);
      }
    }
    (void)decodeRelayPayload(wire);
  }
  EXPECT_GT(relays, static_cast<std::uint64_t>(kIterations) / 40);
}

TEST(Cells, OversizedPayloadIsClampedNotOverflowed) {
  Cell cell;
  cell.circ_id = 1;
  cell.cmd = CellCommand::kRelay;
  cell.payload = Bytes(kCellPayloadSize, 0x7);  // exactly max
  const Bytes wire = encodeCell(cell);
  EXPECT_EQ(wire.size(), kCellSize);
  CellReader reader;
  const auto cells = reader.feed(wire);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].payload.size(), kCellPayloadSize);
}

TEST(TorClient, SecondPageReusesCircuit) {
  TorWorld w;
  TorClient client(w.client, w.clientOptions(true));
  bool ready = false;
  client.bootstrap([&](bool r) { ready = r; });
  w.runUntilDone([&] { return ready; }, 5 * sim::kMinute);
  EXPECT_EQ(client.circuitsBuilt(), 1);

  for (int round = 0; round < 2; ++round) {
    auto connector = std::make_shared<http::SocksConnector>(
        w.client, client.socksEndpoint());
    Bytes echoed;
    transport::Stream::Ptr keep;
    connector->connect(
        transport::ConnectTarget::byHostname("echo.test", 7000),
        [&](transport::Stream::Ptr stream) {
          ASSERT_NE(stream, nullptr);
          keep = stream;
          stream->setOnData([&](ByteView d) { appendBytes(echoed, d); });
          stream->send(toBytes("again"));
        });
    w.runUntilDone([&] { return echoed.size() >= 5; }, 5 * sim::kMinute);
  }
  EXPECT_EQ(client.circuitsBuilt(), 1);  // no rebuild needed
}

}  // namespace
}  // namespace sc::tor
