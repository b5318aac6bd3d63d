#include "net/address.h"

#include <charconv>

#include "util/strings.h"

namespace sc::net {

std::optional<Ipv4> Ipv4::parse(std::string_view dotted) {
  const auto parts = splitString(dotted, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t v = 0;
  for (const auto& p : parts) {
    if (p.empty() || p.size() > 3) return std::nullopt;
    unsigned octet = 0;
    const auto [ptr, ec] =
        std::from_chars(p.data(), p.data() + p.size(), octet);
    if (ec != std::errc{} || ptr != p.data() + p.size() || octet > 255)
      return std::nullopt;
    v = v << 8 | octet;
  }
  return Ipv4(v);
}

std::string Ipv4::str() const {
  return std::to_string(v >> 24) + "." + std::to_string(v >> 16 & 0xFF) + "." +
         std::to_string(v >> 8 & 0xFF) + "." + std::to_string(v & 0xFF);
}

std::string Endpoint::str() const {
  return ip.str() + ":" + std::to_string(port);
}

}  // namespace sc::net
