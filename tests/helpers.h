// Shared fixtures: a minimal two-host world (client in China, server in the
// US, GFW-capable border) used by transport/http/method unit tests that
// don't need the full measurement Testbed, the digest behind the
// measurement cells' same-seed goldens, the TLS-sim ClientHello bytes the
// DPI tests classify, the seeded mutator the hostile-input tests use, and
// the stream end and border tap those tests drive decoders with.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/link.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "transport/host_stack.h"
#include "transport/stream.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace sc::test {

struct MiniWorld {
  sim::Simulator sim;
  net::Network network{sim};
  net::World world{network};
  net::Node& client_node{world.addCampusHost("client")};
  net::Node& server_node{world.addUsServer("server")};
  transport::HostStack client{client_node};
  transport::HostStack server{server_node};

  explicit MiniWorld(std::uint64_t seed = 7) : sim(seed) {}

  // Runs until `done` is true; fails the test on timeout.
  void runUntilDone(const std::function<bool()>& done,
                    sim::Time budget = 2 * sim::kMinute) {
    ASSERT_TRUE(sim.runWhile(done, sim.now() + budget))
        << "simulation timed out after " << sim::toSeconds(budget) << "s";
  }
};

// FNV-1a over a cell's JSONL exports and then its scalar results in argument
// order (integers as uint64, reals by bit pattern). A same-seed golden built
// from it pins the cell's traffic across commits, not just across runs.
template <typename... Scalars>
std::uint64_t cellDigest(std::string_view metrics_jsonl,
                         std::string_view trace_jsonl, Scalars... scalars) {
  Fnv1a h;
  h.add(metrics_jsonl);
  h.add(trace_jsonl);
  const auto add = [&h](auto v) {
    if constexpr (std::is_floating_point_v<decltype(v)>)
      h.add(static_cast<double>(v));
    else
      h.add(static_cast<std::uint64_t>(v));
  };
  (add(scalars), ...);
  return h.value();
}

// A ClientHello in the TLS-sim wire format: record 0x16, version, length;
// message tag 1, then the length-prefixed SNI and fingerprint.
inline Bytes clientHelloBytes(std::string_view sni, std::string_view fp) {
  Bytes out;
  appendU8(out, 0x16);
  appendU16(out, 0x0303);
  appendU16(out, static_cast<std::uint16_t>(1 + 2 + sni.size() + 2 +
                                            fp.size()));
  appendU8(out, 0x01);
  appendU16(out, static_cast<std::uint16_t>(sni.size()));
  appendBytes(out, toBytes(sni));
  appendU16(out, static_cast<std::uint16_t>(fp.size()));
  appendBytes(out, toBytes(fp));
  return out;
}

// An in-memory stream end: what the layer above sends is kept in `sent`,
// and deliver() hands bytes up as if the peer had sent them, so a decoder
// can be fed any bytes in any chunking without a network.
struct MemoryStream final : transport::Stream {
  Bytes sent;
  bool open = true;

  void send(Bytes data) override { appendBytes(sent, data); }
  void close() override { open = false; }
  bool connected() const override { return open; }

  void deliver(ByteView data) { emitData(data); }
  void hangUp() { emitClose(); }
};

// Every TCP payload crossing the border, concatenated per direction (index
// by net::Direction), plus FNV-1a over each segment's direction, seq, ack,
// flags and payload: real wire bytes to seed hostile corpora with, and the
// hash a wire golden pins.
struct BorderPayloads final : net::PacketFilter {
  Bytes by_dir[2];
  Fnv1a wire;

  Verdict onPacket(net::Packet& pkt, net::Direction dir, net::Link&) override {
    if (!pkt.isTcp()) return Verdict::kPass;
    const net::TcpSeg& t = pkt.tcp();
    wire.addByte(static_cast<std::uint8_t>(dir));
    wire.add(t.seq);
    wire.add(t.ack);
    wire.addByte(static_cast<std::uint8_t>(
        t.flags.syn | t.flags.ack << 1 | t.flags.fin << 2 | t.flags.rst << 3 |
        t.flags.psh << 4));
    wire.add(static_cast<std::uint64_t>(pkt.payload.size()));
    wire.add(asStringView(pkt.payload));
    appendBytes(by_dir[static_cast<int>(dir)], pkt.payload);
    return Verdict::kPass;
  }
};

// Splits `wire` into pieces of 1 to `max_chunk` bytes drawn from `rng` and
// hands each to `feed`.
template <typename Feed>
void feedInRandomChunks(ByteView wire, std::size_t max_chunk, sim::Rng& rng,
                        Feed&& feed) {
  for (std::size_t off = 0; off < wire.size();) {
    const std::size_t n = std::min<std::size_t>(
        wire.size() - off, 1 + rng.uniformU64(max_chunk));
    feed(wire.subspan(off, n));
    off += n;
  }
}

// One seeded mutation: a copy of a random seed with 1 to 4 edits, each an
// overwrite, an insert, a short delete, a duplicated run or a splice onto
// the tail of another seed. New bytes come from `spice`. The draw order is
// fixed, so a given rng state always yields the same bytes.
inline Bytes mutate(const std::vector<Bytes>& seeds, std::string_view spice,
                    sim::Rng& rng) {
  Bytes wire = seeds[rng.uniformU64(seeds.size())];
  const auto edits = 1 + rng.uniformU64(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = wire.empty() ? 0 : rng.uniformU64(wire.size());
    const auto fresh =
        static_cast<std::uint8_t>(spice[rng.uniformU64(spice.size())]);
    switch (rng.uniformU64(5)) {
      case 0:
        if (!wire.empty()) wire[at] = fresh;
        break;
      case 1:
        wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at), fresh);
        break;
      case 2: {
        const std::size_t n =
            std::min<std::size_t>(wire.size() - at, 1 + rng.uniformU64(8));
        wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(at),
                   wire.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      case 3: {
        const std::size_t n =
            std::min<std::size_t>(wire.size() - at, 1 + rng.uniformU64(16));
        const Bytes run(wire.begin() + static_cast<std::ptrdiff_t>(at),
                        wire.begin() + static_cast<std::ptrdiff_t>(at + n));
        wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at),
                    run.begin(), run.end());
        break;
      }
      default: {
        const Bytes& other = seeds[rng.uniformU64(seeds.size())];
        wire.resize(at);
        appendBytes(wire, other);
        break;
      }
    }
  }
  return wire;
}

}  // namespace sc::test
