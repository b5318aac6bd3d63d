// IPv4 addressing for the simulated internet.
//
// The world uses a fixed address plan (see topology.h): 10.3.0.0/16 for the
// Tsinghua campus (CERNET), 10.9.0.0/16 for other Chinese ISPs, 203.0.0.0/8
// for US hosts (Aliyun San Mateo, Google front-ends, CDN), 198.18.0.0/16 for
// Tor relays, so that prefix-based routing and the GFW's IP blocklists look
// like the real thing.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sc::net {

struct Ipv4 {
  std::uint32_t v = 0;

  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t raw) : v(raw) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : v(std::uint32_t{a} << 24 | std::uint32_t{b} << 16 |
          std::uint32_t{c} << 8 | d) {}

  static std::optional<Ipv4> parse(std::string_view dotted);
  std::string str() const;

  constexpr bool isZero() const noexcept { return v == 0; }
  auto operator<=>(const Ipv4&) const = default;
};

struct Prefix {
  Ipv4 base;
  int length = 0;  // 0..32

  constexpr bool contains(Ipv4 ip) const noexcept {
    if (length <= 0) return true;
    const std::uint32_t mask =
        length >= 32 ? 0xFFFFFFFFu : ~(0xFFFFFFFFu >> length);
    return (ip.v & mask) == (base.v & mask);
  }
  auto operator<=>(const Prefix&) const = default;
};

using Port = std::uint16_t;

struct Endpoint {
  Ipv4 ip;
  Port port = 0;
  std::string str() const;
  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace sc::net

template <>
struct std::hash<sc::net::Ipv4> {
  std::size_t operator()(const sc::net::Ipv4& ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.v);
  }
};

template <>
struct std::hash<sc::net::Endpoint> {
  std::size_t operator()(const sc::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(std::uint64_t{e.ip.v} << 16 | e.port);
  }
};
