// URL parsing: scheme://host[:port][/path][?query][#fragment]. Userinfo
// ("user@host") is rejected, not stripped.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/address.h"

namespace sc::http {

struct Url {
  std::string scheme = "http";  // "http" or "https"
  std::string host;
  net::Port port = 80;
  std::string path = "/";

  static std::optional<Url> parse(std::string_view text);
  std::string str() const;
  bool isHttps() const { return scheme == "https"; }
  net::Port defaultPort() const { return isHttps() ? 443 : 80; }
};

}  // namespace sc::http
