// Ownership: a handler may replace or clear itself mid-call, a released
// socket answers late segments exactly as before, and every world is freed
// when its owner goes out of scope (memory stays flat over repeated worlds;
// under ASan, a world torn down mid-transfer leaks and touches nothing).
#include <gtest/gtest.h>
#include <malloc.h>

#include <memory>
#include <optional>
#include <string>

#include "helpers.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "net/packet.h"
#include "transport/stream.h"
#include "util/hash.h"

namespace sc {
namespace {

// A stream whose deliveries the test drives by hand.
class ManualStream final : public transport::Stream {
 public:
  void send(Bytes) override {}
  void close() override {}
  bool connected() const override { return true; }
  void deliver(std::string_view s) { emitData(toBytes(s)); }
};

std::string str(ByteView data) { return std::string(data.begin(), data.end()); }

TEST(StreamHandlers, HandlerReplacesItselfMidCall) {
  ManualStream s;
  std::string log;
  auto state = std::make_shared<std::string>("A");
  s.setOnData([&s, &log, state](ByteView data) {
    s.setOnData([&log](ByteView d) {
      log += 'B';
      log += str(d);
    });
    // The replaced closure is still running: its captures are intact.
    log += *state;
    log += str(data);
  });
  s.deliver("1");
  s.deliver("2");
  EXPECT_EQ(log, "A1B2");
  EXPECT_EQ(state.use_count(), 1);  // the old closure is gone once it returned
}

TEST(StreamHandlers, HandlerClearsItselfMidCall) {
  ManualStream s;
  std::string log;
  auto state = std::make_shared<std::string>("A");
  s.setOnData([&s, &log, state](ByteView data) {
    s.setOnData(nullptr);
    log += *state;
    log += str(data);
  });
  s.deliver("1");
  EXPECT_EQ(state.use_count(), 1);
  s.deliver("2");  // no handler: buffered
  s.deliver("3");
  EXPECT_EQ(log, "A1");
  s.setOnData([&log](ByteView d) {
    log += 'C';
    log += str(d);
  });
  EXPECT_EQ(log, "A1C23");
}

TEST(StreamHandlers, DataWithoutHandlerIsBufferedAndFlushedLater) {
  ManualStream s;
  s.deliver("ab");
  s.deliver("c");
  std::string log;
  int calls = 0;
  s.setOnData([&](ByteView d) {
    ++calls;
    log += str(d);
  });
  EXPECT_EQ(log, "abc");
  EXPECT_EQ(calls, 1);  // one flush of everything buffered
  s.deliver("d");
  EXPECT_EQ(log, "abcd");
  EXPECT_EQ(calls, 2);
}

TEST(StreamHandlers, HandlerMayDropTheLastReferenceToItsStream) {
  auto owner = std::make_shared<ManualStream>();
  ManualStream* raw = owner.get();
  std::string log;
  owner->setOnData([&](ByteView d) {
    log += str(d);
    owner.reset();  // destroys the stream mid-delivery
    log += "!";
  });
  raw->deliver("x");
  EXPECT_EQ(log, "x!");
  EXPECT_EQ(owner, nullptr);
}

// Releases an established client socket in FinWait or CloseWait, then
// injects a late data segment and a retransmitted FIN at its address pair.
// Every packet the client host sends back to the server port is captured
// raw and hashed, so any change in how a released socket answers shows.
std::uint64_t releasedSocketWire(bool client_closes_first) {
  test::MiniWorld w;
  transport::TcpSocket::Ptr server_side;
  auto listener = w.server.tcpListen(
      7000, [&](transport::TcpSocket::Ptr s) { server_side = std::move(s); });
  transport::TcpSocket::Ptr client = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 7000}, [](auto&&...) {});
  w.runUntilDone([&] { return client->connected() && server_side != nullptr; });
  const net::Endpoint c = client->local();
  const net::Endpoint s = client->remote();

  if (client_closes_first) {
    client->close();  // FIN; the peer acks it: FinWait
  } else {
    server_side->close();  // peer FIN: CloseWait
  }
  w.sim.runUntil(w.sim.now() + sim::kSecond);
  EXPECT_EQ(client->state(), client_closes_first
                                 ? transport::TcpSocket::State::kFinWait
                                 : transport::TcpSocket::State::kCloseWait);
  client.reset();  // the application lets go

  Fnv1a wire;
  w.server.setPortCapture(7000, 7001, [&](net::Packet&& pkt) {
    const Bytes raw = net::serializePacket(pkt);
    wire.add(std::string_view(reinterpret_cast<const char*>(raw.data()),
                              raw.size()));
  });
  net::TcpFlags data_flags;
  data_flags.ack = true;
  data_flags.psh = true;
  w.server.sendPacket(net::makeTcp(s.ip, c.ip, s.port, c.port, data_flags,
                                   0x1000, 0x2000, toBytes("late bytes")));
  net::TcpFlags fin_flags;
  fin_flags.fin = true;
  fin_flags.ack = true;
  w.server.sendPacket(net::makeTcp(s.ip, c.ip, s.port, c.port, fin_flags,
                                   0x100A, 0x2000, {}));
  w.sim.runUntil(w.sim.now() + 5 * sim::kSecond);
  return wire.value();
}

// Both released sockets are gone, so the host answers each injected
// segment with a RST from its demux, the same bytes in either state.
TEST(Ownership, ReleasedSocketInFinWaitAnswersLateSegmentsAsBefore) {
  EXPECT_EQ(releasedSocketWire(/*client_closes_first=*/true),
            0xda708fe5a649a94fULL);
}

TEST(Ownership, ReleasedSocketInCloseWaitAnswersLateSegmentsAsBefore) {
  EXPECT_EQ(releasedSocketWire(/*client_closes_first=*/false),
            0xda708fe5a649a94fULL);
}

TEST(Ownership, WorldMemoryStaysFlat) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator does not report through mallinfo2";
#else
  const auto liveHeapBytes = [] { return mallinfo2().uordblks; };
  measure::ScalabilityOptions opts;
  opts.accesses_per_client = 1;
  opts.seed = 22;
  const auto world = [&] {
    for (const auto method :
         {measure::Method::kShadowsocks, measure::Method::kScholarCloud}) {
      const auto point = measure::runScalabilityPoint(method, 8, opts);
      EXPECT_EQ(point.clients, 8);
    }
  };
  world();
  const std::size_t after_one = liveHeapBytes();
  for (int i = 0; i < 3; ++i) world();
  const std::size_t after_four = liveHeapBytes();
  EXPECT_LE(static_cast<double>(after_four),
            1.10 * static_cast<double>(after_one))
      << "live heap after one world " << after_one << " B, after four "
      << after_four << " B";
#endif
}

// Tears a testbed down while every method has a page load in flight:
// events pending, sockets, TLS sessions, tunnels and bridges open. Under
// ASan this must neither leak nor touch freed memory.
TEST(Ownership, TestbedDestroyedMidTransferOnAllSixMethods) {
  constexpr measure::Method kMethods[] = {
      measure::Method::kNativeVpn,   measure::Method::kOpenVpn,
      measure::Method::kTor,         measure::Method::kShadowsocks,
      measure::Method::kScholarCloud, measure::Method::kServerless};
  auto tb = std::make_unique<measure::Testbed>();
  int ready = 0;
  std::uint32_t tag = 100;
  std::vector<measure::Testbed::Client*> clients;
  for (const auto method : kMethods)
    clients.push_back(&tb->addClient(method, tag++, [&](bool) { ++ready; }));
  tb->sim().runWhile([&] { return ready == 6; },
                     tb->sim().now() + 2 * sim::kMinute);
  ASSERT_EQ(ready, 6);
  int finished = 0;
  for (auto* c : clients) {
    c->browser->loadPage(measure::Testbed::kScholarHost,
                         [&](http::PageLoadResult) { ++finished; });
  }
  const std::uint64_t fired_before = tb->sim().eventsExecuted();
  tb->sim().runUntil(tb->sim().now() + 2 * sim::kSecond);
  EXPECT_GT(tb->sim().eventsExecuted(), fired_before + 1000);
  EXPECT_LT(finished, 6);  // still mid-transfer
  EXPECT_GT(tb->sim().pendingEvents(), 0u);
  tb.reset();
}

}  // namespace
}  // namespace sc
