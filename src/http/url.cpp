#include "http/url.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace sc::http {

std::optional<Authority> parseAuthority(std::string_view text,
                                        net::Port default_port) {
  Authority out;
  out.port = default_port;
  const auto colon = text.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view port_sv = text.substr(colon + 1);
    unsigned port = 0;
    const auto [ptr, ec] =
        std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
    if (ec != std::errc{} || ptr != port_sv.data() + port_sv.size() ||
        port == 0 || port > 65535)
      return std::nullopt;
    out.port = static_cast<net::Port>(port);
    text = text.substr(0, colon);
  }
  if (text.empty() || hasControlByte(text) ||
      text.find_first_of(" @:/?#\\") != std::string_view::npos)
    return std::nullopt;
  out.host = std::string(text);
  return out;
}

std::optional<Url> Url::parse(std::string_view text) {
  Url url;
  const auto scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  url.scheme = std::string(text.substr(0, scheme_end));
  if (url.scheme != "http" && url.scheme != "https") return std::nullopt;
  text.remove_prefix(scheme_end + 3);

  // The authority ends at the first '/', '?' or '#' (RFC 3986 §3.2). A
  // query or fragment straight after it hangs off the root path.
  const auto authority_end = std::min(text.find_first_of("/?#"), text.size());
  auto authority =
      parseAuthority(text.substr(0, authority_end), url.defaultPort());
  if (!authority.has_value()) return std::nullopt;
  url.host = std::move(authority->host);
  url.port = authority->port;
  const std::string_view rest = text.substr(authority_end);
  // The path goes verbatim into a request line, which a space or a control
  // byte would split or end.
  if (hasControlByte(rest) || rest.find(' ') != std::string_view::npos)
    return std::nullopt;
  std::string path;
  if (rest.empty() || rest.front() != '/') path.push_back('/');
  path.append(rest);
  url.path = std::move(path);
  return url;
}

std::string Url::str() const {
  const std::string port_str =
      port != defaultPort() ? std::to_string(port) : std::string();
  std::string s;
  s.reserve(scheme.size() + 4 + host.size() + port_str.size() + path.size());
  s.append(scheme).append("://").append(host);
  if (!port_str.empty()) s.append(":").append(port_str);
  s.append(path);
  return s;
}

}  // namespace sc::http
