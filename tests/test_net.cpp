#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "sim/rng.h"

namespace sc::net {
namespace {

TEST(Ipv4, ParsesAndFormats) {
  const auto ip = Ipv4::parse("10.3.1.42");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->str(), "10.3.1.42");
  EXPECT_EQ(*ip, Ipv4(10, 3, 1, 42));
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse("10.3.1").has_value());
  EXPECT_FALSE(Ipv4::parse("10.3.1.256").has_value());
  EXPECT_FALSE(Ipv4::parse("10.3.1.x").has_value());
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("10.3.1.2.3").has_value());
}

TEST(Prefix, Contains) {
  const Prefix p{Ipv4(10, 3, 0, 0), 16};
  EXPECT_TRUE(p.contains(Ipv4(10, 3, 1, 1)));
  EXPECT_TRUE(p.contains(Ipv4(10, 3, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4(10, 4, 0, 1)));
  EXPECT_TRUE((Prefix{Ipv4(), 0}).contains(Ipv4(1, 2, 3, 4)));
  EXPECT_TRUE((Prefix{Ipv4(1, 2, 3, 4), 32}).contains(Ipv4(1, 2, 3, 4)));
  EXPECT_FALSE((Prefix{Ipv4(1, 2, 3, 4), 32}).contains(Ipv4(1, 2, 3, 5)));
}

TEST(Packet, SerializeParseRoundTripTcp) {
  Packet p = makeTcp(Ipv4(1, 2, 3, 4), Ipv4(5, 6, 7, 8), 1234, 80,
                     TcpFlags{.syn = true, .ack = true}, 42, 43,
                     toBytes("hello"));
  p.ttl = 17;
  const auto parsed = parsePacket(serializePacket(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, p.src);
  EXPECT_EQ(parsed->dst, p.dst);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->tcp().seq, 42u);
  EXPECT_EQ(parsed->tcp().ack, 43u);
  EXPECT_TRUE(parsed->tcp().flags.syn);
  EXPECT_TRUE(parsed->tcp().flags.ack);
  EXPECT_FALSE(parsed->tcp().flags.fin);
  EXPECT_EQ(parsed->payload, toBytes("hello"));
}

TEST(Packet, SerializeParseRoundTripUdpGreEsp) {
  const auto rt = [](Packet p) {
    const auto parsed = parsePacket(serializePacket(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->proto, p.proto);
    EXPECT_EQ(parsed->payload, p.payload);
  };
  rt(makeUdp(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 53, 53, toBytes("q")));
  rt(makeGre(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 99, toBytes("inner")));
  Packet esp;
  esp.src = Ipv4(9, 9, 9, 9);
  esp.dst = Ipv4(8, 8, 8, 8);
  esp.proto = IpProto::kEsp;
  esp.l4 = EspFrame{0x1000, 5};
  esp.payload = toBytes("ciphertext");
  rt(esp);
}

TEST(Packet, ParseRejectsGarbage) {
  EXPECT_FALSE(parsePacket(toBytes("not a packet")).has_value());
  EXPECT_FALSE(parsePacket(ByteView{}).has_value());
  // Truncated serialization.
  Packet p = makeUdp(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2, Bytes(100));
  Bytes wire = serializePacket(p);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(parsePacket(wire).has_value());
}

TEST(Packet, WireSizeCountsHeaders) {
  const Packet tcp =
      makeTcp(Ipv4(), Ipv4(), 1, 2, TcpFlags{}, 0, 0, Bytes(100));
  EXPECT_EQ(tcp.wireSize(), 100u + 40u);
  const Packet udp = makeUdp(Ipv4(), Ipv4(), 1, 2, Bytes(100));
  EXPECT_EQ(udp.wireSize(), 100u + 28u);
}

TEST(FiveTuple, ReversalAndEquality) {
  const Packet p = makeTcp(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 10, 20,
                           TcpFlags{}, 0, 0, {});
  const FiveTuple t = p.fiveTuple();
  EXPECT_EQ(t.reversed().reversed(), t);
  EXPECT_EQ(t.reversed().src, t.dst);
  EXPECT_EQ(t.reversed().src_port, t.dst_port);
}

// ---- link & routing behaviour ----

struct TwoHosts {
  sim::Simulator sim{5};
  Network net{sim};
  Node& a{net.addNode("a")};
  Node& b{net.addNode("b")};
  Link* link = nullptr;

  explicit TwoHosts(LinkParams params = {}) {
    link = &net.addLink(a, b, params, "ab");
    a.attach(*link, Ipv4(10, 0, 0, 1));
    b.attach(*link, Ipv4(10, 0, 0, 2));
    a.setDefaultRoute(*link);
    b.setDefaultRoute(*link);
  }
};

TEST(Link, DeliversWithPropagationDelay) {
  LinkParams params;
  params.prop_delay = 10 * sim::kMillisecond;
  TwoHosts w(params);
  sim::Time arrival = -1;
  w.b.setLocalHandler([&](Packet&&) { arrival = w.sim.now(); });
  w.a.send(makeUdp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1, 2, toBytes("x")));
  w.sim.run();
  EXPECT_GE(arrival, 10 * sim::kMillisecond);
  EXPECT_LT(arrival, 12 * sim::kMillisecond);
}

TEST(Link, SerializationDelayOrdersBackToBackPackets) {
  LinkParams params;
  params.prop_delay = sim::kMillisecond;
  params.bandwidth_bps = 1e6;  // 1 Mbps: a 1000-byte packet takes 8 ms
  TwoHosts w(params);
  std::vector<int> order;
  std::vector<sim::Time> times;
  w.b.setLocalHandler([&](Packet&& p) {
    order.push_back(static_cast<int>(p.payload[0]));
    times.push_back(w.sim.now());
  });
  for (int i = 0; i < 3; ++i) {
    Bytes payload(1000, static_cast<std::uint8_t>(i));
    w.a.send(makeUdp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1, 2,
                     std::move(payload)));
  }
  w.sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Each subsequent packet arrives one serialization time later.
  EXPECT_GT(times[1] - times[0], 7 * sim::kMillisecond);
}

TEST(Link, RandomLossDropsApproximatelyTheConfiguredFraction) {
  LinkParams params;
  params.loss_rate = 0.1;
  TwoHosts w(params);
  int received = 0;
  w.b.setLocalHandler([&](Packet&&) { ++received; });
  constexpr int kSent = 5000;
  for (int i = 0; i < kSent; ++i)
    w.a.send(makeUdp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1, 2, Bytes(10)));
  w.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / kSent, 0.9, 0.02);
  const auto stats = w.net.tagStats(0);
  EXPECT_EQ(stats.originated, static_cast<std::uint64_t>(kSent));
  EXPECT_NEAR(stats.lossRate(), 0.1, 0.02);
}

TEST(Link, FilterCanDropAndInject) {
  struct Dropper : PacketFilter {
    int seen = 0;
    Verdict onPacket(Packet& pkt, Direction, Link&) override {
      ++seen;
      return pkt.payload.size() > 5 ? Verdict::kDrop : Verdict::kPass;
    }
  };
  TwoHosts w;
  Dropper dropper;
  w.link->addFilter(&dropper);
  int received = 0;
  w.b.setLocalHandler([&](Packet&&) { ++received; });
  w.a.send(makeUdp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1, 2, Bytes(3)));
  w.a.send(makeUdp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1, 2, Bytes(100)));
  w.sim.run();
  EXPECT_EQ(dropper.seen, 2);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(w.net.tagStats(0).lost_filter, 1u);
}

TEST(World, RoutesCampusToUsAndBack) {
  sim::Simulator sim(3);
  Network net(sim);
  World world(net);
  Node& client = world.addCampusHost("c");
  Node& server = world.addUsServer("s");

  bool got_request = false, got_reply = false;
  server.setLocalHandler([&](Packet&& p) {
    got_request = true;
    Packet reply = makeUdp(server.primaryIp(), p.src, 7, p.udp().src_port,
                           toBytes("pong"));
    server.send(std::move(reply));
  });
  client.setLocalHandler([&](Packet&&) { got_reply = true; });
  client.send(makeUdp(client.primaryIp(), server.primaryIp(), 7000, 7,
                      toBytes("ping")));
  sim.run();
  EXPECT_TRUE(got_request);
  EXPECT_TRUE(got_reply);
}

TEST(World, CampusToUsRttIsInTheCalibratedBand) {
  sim::Simulator sim(3);
  Network net(sim);
  World world(net);
  Node& client = world.addCampusHost("c");
  Node& server = world.addUsServer("s");
  server.setLocalHandler([&](Packet&& p) {
    server.send(makeUdp(server.primaryIp(), p.src, 7, p.udp().src_port, {}));
  });
  sim::Time rtt = 0;
  client.setLocalHandler([&](Packet&&) { rtt = sim.now(); });
  client.send(makeUdp(client.primaryIp(), server.primaryIp(), 7000, 7, {}));
  sim.run();
  EXPECT_GT(rtt, 120 * sim::kMillisecond);
  EXPECT_LT(rtt, 220 * sim::kMillisecond);
}

TEST(World, DomesticPathAvoidsTheBorder) {
  sim::Simulator sim(3);
  Network net(sim);
  World world(net);
  Node& client = world.addCampusHost("c");
  Node& domestic = world.addChinaHost("d");
  sim::Time rtt = 0;
  domestic.setLocalHandler([&](Packet&& p) {
    domestic.send(makeUdp(domestic.primaryIp(), p.src, 7, p.udp().src_port, {}));
  });
  client.setLocalHandler([&](Packet&&) { rtt = sim.now(); });
  client.send(makeUdp(client.primaryIp(), domestic.primaryIp(), 7000, 7, {}));
  sim.run();
  EXPECT_LT(rtt, 20 * sim::kMillisecond);
  EXPECT_EQ(world.borderLink().bytesCarried(Direction::kAtoB), 0u);
}

TEST(World, LoopbackDeliveryWorks) {
  sim::Simulator sim(3);
  Network net(sim);
  World world(net);
  Node& client = world.addCampusHost("c");
  bool got = false;
  client.setLocalHandler([&](Packet&&) { got = true; });
  client.send(makeUdp(client.primaryIp(), client.primaryIp(), 1, 2, {}));
  sim.run();
  EXPECT_TRUE(got);
}

TEST(World, TtlExpiryDropsRoutingLoops) {
  sim::Simulator sim(3);
  Network net(sim);
  // Two routers pointing default routes at each other: a loop.
  Node& r1 = net.addNode("r1");
  Node& r2 = net.addNode("r2");
  Link& l = net.addLink(r1, r2, {}, "loop");
  r1.attach(l, Ipv4(1, 0, 0, 1));
  r2.attach(l, Ipv4(1, 0, 0, 2));
  r1.setDefaultRoute(l);
  r2.setDefaultRoute(l);
  Packet p = makeUdp(Ipv4(1, 0, 0, 1), Ipv4(99, 99, 99, 99), 1, 2, {});
  p.ttl = 8;
  r1.send(std::move(p));
  const std::size_t events = sim.run();
  EXPECT_LT(events, 30u);  // bounded by TTL, not infinite
}

}  // namespace
}  // namespace sc::net

namespace sc::net {
namespace {

TEST(Link, TailDropsWhenQueueExceedsLimit) {
  sim::Simulator sim(9);
  Network net(sim);
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  LinkParams params;
  params.bandwidth_bps = 1e5;  // 100 kbps: 1000-byte packet = 80 ms
  params.max_queue_delay = 200 * sim::kMillisecond;
  Link& link = net.addLink(a, b, params, "thin");
  a.attach(link, Ipv4(1, 0, 0, 1));
  b.attach(link, Ipv4(1, 0, 0, 2));
  a.setDefaultRoute(link);
  int received = 0;
  b.setLocalHandler([&](Packet&&) { ++received; });
  for (int i = 0; i < 20; ++i)
    a.send(makeUdp(Ipv4(1, 0, 0, 1), Ipv4(1, 0, 0, 2), 1, 2, Bytes(1000)));
  sim.run();
  EXPECT_LT(received, 20);
  EXPECT_GT(net.tagStats(0).lost_queue, 0u);
  EXPECT_EQ(net.tagStats(0).lost_queue + static_cast<std::uint64_t>(received),
            20u);
}

TEST(Link, InjectedPacketsBypassFilters) {
  struct DropAll : PacketFilter {
    Verdict onPacket(Packet&, Direction, Link&) override {
      return Verdict::kDrop;
    }
  };
  sim::Simulator sim(9);
  Network net(sim);
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  Link& link = net.addLink(a, b, {}, "ab");
  a.attach(link, Ipv4(1, 0, 0, 1));
  b.attach(link, Ipv4(1, 0, 0, 2));
  a.setDefaultRoute(link);
  DropAll filter;
  link.addFilter(&filter);

  int received = 0;
  b.setLocalHandler([&](Packet&&) { ++received; });
  a.send(makeUdp(Ipv4(1, 0, 0, 1), Ipv4(1, 0, 0, 2), 1, 2, Bytes(10)));
  sim.run();
  EXPECT_EQ(received, 0);  // filter ate it

  // A middlebox injection (like a GFW RST) is not re-filtered.
  link.inject(Direction::kAtoB,
              makeUdp(Ipv4(9, 9, 9, 9), Ipv4(1, 0, 0, 2), 1, 2, Bytes(10)));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Link, BytesCarriedCountsWireSizePerDirection) {
  sim::Simulator sim(9);
  Network net(sim);
  World world(net);
  Node& host = world.addCampusHost("h");
  Node& server = world.addUsServer("s");
  Link* access = world.accessLink(host);
  ASSERT_NE(access, nullptr);
  const std::uint64_t before = access->bytesCarried(Direction::kAtoB) +
                               access->bytesCarried(Direction::kBtoA);
  host.send(makeUdp(host.primaryIp(), server.primaryIp(), 1, 2, Bytes(100)));
  sim.run();
  const std::uint64_t after = access->bytesCarried(Direction::kAtoB) +
                              access->bytesCarried(Direction::kBtoA);
  EXPECT_EQ(after - before, 128u);  // 100 payload + 28 UDP/IP headers
}

TEST(Node, EgressHookConsumedPacketsAreNotOriginated) {
  sim::Simulator sim(9);
  Network net(sim);
  World world(net);
  Node& host = world.addCampusHost("h");
  host.setEgressHook([](Packet&) { return true; });  // swallow everything
  Packet p = makeUdp(host.primaryIp(), Ipv4(203, 0, 1, 1), 1, 2, Bytes(10));
  p.measure_tag = 5;
  host.send(std::move(p));
  sim.run();
  EXPECT_EQ(net.tagStats(5).originated, 0u);
}

TEST(Network, TagStatsKeepEachTagApartAndReset) {
  sim::Simulator sim(9);
  Network net(sim);
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  Link& link = net.addLink(a, b, {}, "ab");
  a.attach(link, Ipv4(1, 0, 0, 1));
  b.attach(link, Ipv4(1, 0, 0, 2));
  a.setDefaultRoute(link);
  // Tags arrive out of order and interleaved; each keeps its own counts.
  for (const std::uint32_t tag : {901u, 7u, 600u, 7u, 0u, 901u, 901u}) {
    Packet p = makeUdp(Ipv4(1, 0, 0, 1), Ipv4(1, 0, 0, 2), 1, 2, Bytes(10));
    p.measure_tag = tag;
    a.send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(net.tagStats(901).originated, 3u);
  EXPECT_EQ(net.tagStats(901).delivered, 3u);
  EXPECT_EQ(net.tagStats(901).bytes_originated, 3u * 38u);
  EXPECT_EQ(net.tagStats(7).delivered, 2u);
  EXPECT_EQ(net.tagStats(600).originated, 1u);
  EXPECT_EQ(net.tagStats(0).originated, 1u);
  EXPECT_EQ(net.tagStats(8).originated, 0u);
  net.resetTagStats();
  EXPECT_EQ(net.tagStats(901).originated, 0u);
  EXPECT_EQ(net.totalOriginated(), 7u);
}

// ---- Node lookup against the linear scans it replaced ----

// Node's lookup before its tables were indexed: a local address (interface
// or virtual) first; then the longest matching prefix, where the strict `>`
// lets the route added first win a tie; then the default route.
struct LinearNode {
  std::vector<Ipv4> interfaces;
  std::vector<Ipv4> virtual_ips;
  std::vector<std::pair<Prefix, Link*>> routes;
  Link* default_route = nullptr;

  bool hasIp(Ipv4 ip) const {
    return std::find(interfaces.begin(), interfaces.end(), ip) !=
               interfaces.end() ||
           std::find(virtual_ips.begin(), virtual_ips.end(), ip) !=
               virtual_ips.end();
  }
  Link* route(Ipv4 dst) const {
    const std::pair<Prefix, Link*>* best = nullptr;
    for (const auto& r : routes) {
      if (!r.first.contains(dst)) continue;
      if (best == nullptr || r.first.length > best->first.length) best = &r;
    }
    return best != nullptr ? best->second : default_route;
  }
};

TEST(Node, IndexedLookupMatchesLinearScan) {
  sim::Rng rng(20170630);
  // A 64-address pool makes duplicate /32s, equal-length ties, addresses
  // that are both local and routed, and nested prefixes common.
  const auto pick = [&rng] {
    return Ipv4(10, 0, static_cast<std::uint8_t>(rng.uniformU64(8)),
                static_cast<std::uint8_t>(rng.uniformU64(8)));
  };
  constexpr int kLengths[] = {0, 8, 16, 24, 28, 29, 30, 31, 32, 32};
  std::uint64_t checked = 0;
  for (int round = 0; round < 40; ++round) {
    sim::Simulator sim(1);
    Network net(sim);
    Node& router = net.addNode("router");
    std::vector<Link*> links;
    for (int i = 0; i < 6; ++i) {
      Node& peer = net.addNode("peer");
      links.push_back(&net.addLink(router, peer, {}, "link"));
    }
    const auto anyLink = [&] { return links[rng.uniformU64(links.size())]; };
    LinearNode ref;
    for (int step = 0; step < 120; ++step) {
      const Ipv4 ip = pick();
      switch (rng.uniformU64(8)) {
        case 0: {
          Link* link = anyLink();
          router.attach(*link, ip);
          ref.interfaces.push_back(ip);
          break;
        }
        case 1:
        case 2:
        case 3: {
          const Prefix prefix{ip, kLengths[rng.uniformU64(std::size(kLengths))]};
          Link* link = anyLink();
          ASSERT_TRUE(router.addRoute(prefix, *link));
          ref.routes.emplace_back(prefix, link);
          break;
        }
        case 4: {
          Link* link = anyLink();
          router.setDefaultRoute(*link);
          ref.default_route = link;
          break;
        }
        case 5:
          router.addVirtualIp(ip);
          ref.virtual_ips.push_back(ip);
          break;
        case 6:
          router.removeVirtualIp(ip);
          std::erase(ref.virtual_ips, ip);
          break;
        default:
          break;
      }
      for (int q = 0; q < 16; ++q) {
        const Ipv4 dst =
            q == 0 ? Ipv4(static_cast<std::uint32_t>(rng.nextU64())) : pick();
        const Node::Hop hop = router.nextHop(dst);
        ASSERT_EQ(hop.local, ref.hasIp(dst))
            << "round " << round << " step " << step << " dst " << dst.str();
        if (!hop.local) {
          ASSERT_EQ(hop.via, ref.route(dst))
              << "round " << round << " step " << step << " dst " << dst.str();
        }
        ++checked;
      }
      ASSERT_EQ(router.primaryIp(),
                ref.interfaces.empty() ? Ipv4{} : ref.interfaces.front());
    }
  }
  EXPECT_EQ(checked, 40u * 120u * 16u);
}

TEST(Node, AddRouteRejectsPrefixLengthsOutsideZeroToThirtyTwo) {
  sim::Simulator sim(1);
  Network net(sim);
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  Link& link = net.addLink(a, b, {}, "ab");
  EXPECT_FALSE(a.addRoute(Prefix{Ipv4(10, 0, 0, 0), 33}, link));
  EXPECT_FALSE(a.addRoute(Prefix{Ipv4(10, 0, 0, 0), -1}, link));
  EXPECT_EQ(a.nextHop(Ipv4(10, 0, 0, 0)).via, nullptr);
  EXPECT_TRUE(a.addRoute(Prefix{Ipv4(10, 0, 0, 0), 32}, link));
  EXPECT_TRUE(a.addRoute(Prefix{Ipv4(0, 0, 0, 0), 0}, link));
  EXPECT_EQ(a.nextHop(Ipv4(10, 0, 0, 0)).via, &link);
  EXPECT_EQ(a.nextHop(Ipv4(99, 0, 0, 0)).via, &link);
}

}  // namespace
}  // namespace sc::net
