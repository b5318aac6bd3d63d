// URL parsing: scheme://host[:port][/path][?query][#fragment], and the
// host[:port] authority on its own (a CONNECT target). Userinfo
// ("user@host") is rejected, not stripped.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/address.h"

namespace sc::http {

struct Authority {
  std::string host;
  net::Port port = 0;
};

// Parses "host[:port]"; a missing port is `default_port` (pass 0 where the
// port is mandatory: an explicit port is never 0). Refuses an empty
// host, a port that is not all digits in [1, 65535], and a host holding
// userinfo, a second ':', a path, query or fragment delimiter, a backslash
// (which WHATWG parsers read as '/'), whitespace or another control byte
// (a NUL ends the name for a C-string reader): a host that keeps any of
// them could smuggle a different name past a suffix match.
std::optional<Authority> parseAuthority(std::string_view text,
                                        net::Port default_port);

struct Url {
  std::string scheme = "http";  // "http" or "https"
  std::string host;
  net::Port port = 80;
  std::string path = "/";

  // "http[s]://" + an authority parseAuthority accepts + the rest as the
  // path; refuses a path holding a space or a control byte.
  static std::optional<Url> parse(std::string_view text);
  std::string str() const;
  bool isHttps() const { return scheme == "https"; }
  net::Port defaultPort() const { return isHttps() ? 443 : 80; }
};

}  // namespace sc::http
