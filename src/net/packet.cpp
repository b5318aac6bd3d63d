#include "net/packet.h"

namespace sc::net {

Port Packet::srcPort() const {
  if (isTcp()) return tcp().src_port;
  if (isUdp()) return udp().src_port;
  return 0;
}

Port Packet::dstPort() const {
  if (isTcp()) return tcp().dst_port;
  if (isUdp()) return udp().dst_port;
  return 0;
}

FiveTuple Packet::fiveTuple() const {
  return FiveTuple{src, dst, srcPort(), dstPort(), proto};
}

std::size_t Packet::headerBytes() const {
  constexpr std::size_t kIp = 20;
  if (isTcp()) return kIp + 20;
  if (isUdp()) return kIp + 8;
  if (isGre()) return kIp + 12;  // GRE with key field
  return kIp + 8;                // ESP header
}

Packet makeTcp(Ipv4 src, Ipv4 dst, Port sport, Port dport, TcpFlags flags,
               std::uint32_t seq, std::uint32_t ack, Bytes payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = IpProto::kTcp;
  TcpSeg seg;
  seg.src_port = sport;
  seg.dst_port = dport;
  seg.flags = flags;
  seg.seq = seq;
  seg.ack = ack;
  p.l4 = seg;
  p.payload = std::move(payload);
  return p;
}

Packet makeUdp(Ipv4 src, Ipv4 dst, Port sport, Port dport, Bytes payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = IpProto::kUdp;
  p.l4 = UdpDgram{sport, dport};
  p.payload = std::move(payload);
  return p;
}

Packet makeGre(Ipv4 src, Ipv4 dst, std::uint32_t call_id, Bytes payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = IpProto::kGre;
  GreFrame g;
  g.call_id = call_id;
  p.l4 = g;
  p.payload = std::move(payload);
  return p;
}

namespace {
constexpr std::uint8_t kMagic = 0xC4;  // format marker for serialized packets
}

Bytes serializePacket(const Packet& pkt) {
  Bytes out;
  serializePacketInto(pkt, out);
  return out;
}

void serializePacketInto(const Packet& pkt, Bytes& out) {
  out.clear();
  out.reserve(26 + pkt.payload.size());  // worst-case header is 26 bytes
  appendU8(out, kMagic);
  appendU32(out, pkt.src.v);
  appendU32(out, pkt.dst.v);
  appendU8(out, pkt.ttl);
  appendU8(out, static_cast<std::uint8_t>(pkt.proto));
  if (pkt.isTcp()) {
    const auto& t = pkt.tcp();
    appendU16(out, t.src_port);
    appendU16(out, t.dst_port);
    appendU32(out, t.seq);
    appendU32(out, t.ack);
    std::uint8_t fl = 0;
    fl |= t.flags.syn ? 1 : 0;
    fl |= t.flags.ack ? 2 : 0;
    fl |= t.flags.fin ? 4 : 0;
    fl |= t.flags.rst ? 8 : 0;
    fl |= t.flags.psh ? 16 : 0;
    appendU8(out, fl);
    appendU16(out, t.window);
  } else if (pkt.isUdp()) {
    appendU16(out, pkt.udp().src_port);
    appendU16(out, pkt.udp().dst_port);
  } else if (pkt.isGre()) {
    appendU16(out, pkt.gre().protocol);
    appendU32(out, pkt.gre().call_id);
  } else {
    const auto& e = std::get<EspFrame>(pkt.l4);
    appendU32(out, e.spi);
    appendU32(out, e.seq);
  }
  appendU32(out, static_cast<std::uint32_t>(pkt.payload.size()));
  appendBytes(out, pkt.payload);
}

namespace {
// Parses everything up to (and including) the payload length field. On
// success `off` points at the first payload byte and `len` holds its size.
bool parseHeaders(ByteView data, std::size_t& off, Packet& p,
                  std::uint32_t& len) {
  std::uint8_t magic = 0;
  if (!readU8(data, off, magic) || magic != kMagic) return false;
  std::uint32_t src = 0, dst = 0;
  std::uint8_t proto = 0;
  if (!readU32(data, off, src) || !readU32(data, off, dst) ||
      !readU8(data, off, p.ttl) || !readU8(data, off, proto))
    return false;
  p.src = Ipv4(src);
  p.dst = Ipv4(dst);
  p.proto = static_cast<IpProto>(proto);
  switch (p.proto) {
    case IpProto::kTcp: {
      TcpSeg t;
      std::uint8_t fl = 0;
      if (!readU16(data, off, t.src_port) || !readU16(data, off, t.dst_port) ||
          !readU32(data, off, t.seq) || !readU32(data, off, t.ack) ||
          !readU8(data, off, fl) || !readU16(data, off, t.window))
        return false;
      t.flags.syn = fl & 1;
      t.flags.ack = fl & 2;
      t.flags.fin = fl & 4;
      t.flags.rst = fl & 8;
      t.flags.psh = fl & 16;
      p.l4 = t;
      break;
    }
    case IpProto::kUdp: {
      UdpDgram u;
      if (!readU16(data, off, u.src_port) || !readU16(data, off, u.dst_port))
        return false;
      p.l4 = u;
      break;
    }
    case IpProto::kGre: {
      GreFrame g;
      if (!readU16(data, off, g.protocol) || !readU32(data, off, g.call_id))
        return false;
      p.l4 = g;
      break;
    }
    case IpProto::kEsp: {
      EspFrame e;
      if (!readU32(data, off, e.spi) || !readU32(data, off, e.seq))
        return false;
      p.l4 = e;
      break;
    }
    default:
      return false;
  }
  if (!readU32(data, off, len)) return false;
  return data.size() - off >= len;
}
}  // namespace

std::optional<Packet> parsePacket(ByteView data) {
  std::size_t off = 0;
  std::uint32_t len = 0;
  Packet p;
  if (!parseHeaders(data, off, p, len)) return std::nullopt;
  if (!readBytes(data, off, len, p.payload)) return std::nullopt;
  return p;
}

std::optional<Packet> parsePacket(Bytes&& data) {
  std::size_t off = 0;
  std::uint32_t len = 0;
  Packet p;
  if (!parseHeaders(data, off, p, len)) return std::nullopt;
  if (off + len == data.size()) {
    // Steal the buffer: memmove the payload to the front instead of
    // allocating a copy (the common case — frames carry exactly one packet).
    data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(off));
    p.payload = std::move(data);
  } else {
    if (!readBytes(data, off, len, p.payload)) return std::nullopt;
  }
  return p;
}

}  // namespace sc::net
