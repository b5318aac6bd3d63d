// Packet model: IPv4 header + one L4 header (TCP/UDP/GRE) + payload bytes.
//
// The payload is real bytes — TLS records, Shadowsocks ciphertext, blinded
// tunnel frames — so the GFW's deep packet inspection operates on the same
// information a wire tap would see. The only out-of-band field is
// `measure_tag`, a measurement-campaign label the GFW is forbidden to read
// (it exists so the harness can attribute losses to experiments without
// parsing tunnels).
#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "net/address.h"
#include "util/bytes.h"

namespace sc::net {

enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
  kGre = 47,
  kEsp = 50,  // used by the L2TP/IPsec native-VPN variant
};

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
};

struct TcpSeg {
  Port src_port = 0;
  Port dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
};

struct UdpDgram {
  Port src_port = 0;
  Port dst_port = 0;
};

struct GreFrame {
  std::uint16_t protocol = 0x880B;  // PPP, as used by PPTP
  std::uint32_t call_id = 0;
};

struct EspFrame {
  std::uint32_t spi = 0;
  std::uint32_t seq = 0;
};

// Connection identity used by stateful middleboxes and the TCP demux.
struct FiveTuple {
  Ipv4 src;
  Ipv4 dst;
  Port src_port = 0;
  Port dst_port = 0;
  IpProto proto = IpProto::kTcp;

  FiveTuple reversed() const {
    return FiveTuple{dst, src, dst_port, src_port, proto};
  }
  auto operator<=>(const FiveTuple&) const = default;
};

struct Packet {
  Ipv4 src;
  Ipv4 dst;
  std::uint8_t ttl = 64;
  IpProto proto = IpProto::kTcp;
  std::variant<TcpSeg, UdpDgram, GreFrame, EspFrame> l4;
  Bytes payload;

  std::uint64_t id = 0;          // unique per packet, assigned by Network
  std::uint32_t measure_tag = 0;  // measurement-only label; opaque to the GFW

  TcpSeg& tcp() { return std::get<TcpSeg>(l4); }
  const TcpSeg& tcp() const { return std::get<TcpSeg>(l4); }
  UdpDgram& udp() { return std::get<UdpDgram>(l4); }
  const UdpDgram& udp() const { return std::get<UdpDgram>(l4); }
  GreFrame& gre() { return std::get<GreFrame>(l4); }
  const GreFrame& gre() const { return std::get<GreFrame>(l4); }

  bool isTcp() const { return std::holds_alternative<TcpSeg>(l4); }
  bool isUdp() const { return std::holds_alternative<UdpDgram>(l4); }
  bool isGre() const { return std::holds_alternative<GreFrame>(l4); }
  bool isEsp() const { return std::holds_alternative<EspFrame>(l4); }

  Port srcPort() const;
  Port dstPort() const;
  FiveTuple fiveTuple() const;

  std::size_t headerBytes() const;
  std::size_t wireSize() const { return headerBytes() + payload.size(); }
};

// Factory helpers.
Packet makeTcp(Ipv4 src, Ipv4 dst, Port sport, Port dport, TcpFlags flags,
               std::uint32_t seq, std::uint32_t ack, Bytes payload = {});
Packet makeUdp(Ipv4 src, Ipv4 dst, Port sport, Port dport, Bytes payload);
Packet makeGre(Ipv4 src, Ipv4 dst, std::uint32_t call_id, Bytes payload);

// Serialization for IP-in-IP tunneling: the native-VPN data plane carries
// whole inner packets inside GRE/ESP payloads. The format is a compact
// binary encoding (not RFC 791 bit-exact, but lossless and parseable by DPI).
Bytes serializePacket(const Packet& pkt);
// Appends nothing — clears `out` and serializes into it, reusing whatever
// capacity the buffer already has (encap hot path: one scratch per tunnel).
void serializePacketInto(const Packet& pkt, Bytes& out);
std::optional<Packet> parsePacket(ByteView data);
// Consuming overload: the parsed payload steals `data`'s buffer (the header
// prefix is memmoved away) instead of copying the bytes out — the decap hot
// path hands the decrypted buffer straight through.
std::optional<Packet> parsePacket(Bytes&& data);

}  // namespace sc::net

template <>
struct std::hash<sc::net::FiveTuple> {
  std::size_t operator()(const sc::net::FiveTuple& t) const noexcept {
    std::uint64_t a = std::uint64_t{t.src.v} << 32 | t.dst.v;
    std::uint64_t b = std::uint64_t{t.src_port} << 32 |
                      std::uint64_t{t.dst_port} << 16 |
                      static_cast<std::uint64_t>(t.proto);
    a ^= b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2);
    return std::hash<std::uint64_t>{}(a);
  }
};
