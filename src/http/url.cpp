#include "http/url.h"

#include <charconv>

namespace sc::http {

std::optional<Url> Url::parse(std::string_view text) {
  Url url;
  const auto scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  url.scheme = std::string(text.substr(0, scheme_end));
  if (url.scheme != "http" && url.scheme != "https") return std::nullopt;
  text.remove_prefix(scheme_end + 3);

  const auto path_start = text.find('/');
  std::string_view authority = text.substr(0, path_start);
  url.path = path_start == std::string_view::npos
                 ? "/"
                 : std::string(text.substr(path_start));

  const auto colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view port_sv = authority.substr(colon + 1);
    unsigned port = 0;
    const auto [ptr, ec] =
        std::from_chars(port_sv.data(), port_sv.data() + port_sv.size(), port);
    if (ec != std::errc{} || ptr != port_sv.data() + port_sv.size() ||
        port == 0 || port > 65535)
      return std::nullopt;
    url.port = static_cast<net::Port>(port);
    authority = authority.substr(0, colon);
  } else {
    url.port = url.scheme == "https" ? 443 : 80;
  }
  if (authority.empty()) return std::nullopt;
  url.host = std::string(authority);
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
