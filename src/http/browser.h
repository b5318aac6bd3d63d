// Browser model: what the paper's automated Chrome / Tor Browser does.
//
// A page load reproduces the Fig. 4 session structure end to end:
//   - first visit types a scheme-less URL -> plain HTTP -> 301 -> HTTPS
//     ("TCP 2", HTTPS redirection),
//   - the main document fetch ("TCP 3"),
//   - subresource fetches discovered from the page manifest (parallel, with
//     per-URL ETag caching -> conditional GETs on revisit),
//   - the first-visit account/IP recording connection ("TCP 4"),
// and, per access method, egress is DIRECT / HTTP-proxy (absolute-form +
// CONNECT) / SOCKS5 — chosen by a fixed setting or a PAC script, which the
// browser can also download and parse from a URL like a real browser.
//
// First-time vs subsequent PLT differences fall out of real state: the DNS
// cache, the TLS session-ticket cache, the content cache and the HSTS set.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/resolver.h"
#include "http/client.h"
#include "http/pac.h"
#include "http/tls.h"
#include "transport/host_stack.h"

namespace sc::http {

struct BrowserOptions {
  std::string tls_fingerprint = "chrome-56";
  net::Ipv4 dns_server;
  // /etc/hosts-style overrides, consulted before DNS. One of Fig. 3's
  // "other methods" (34% of bypassing scholars): pin a blocked name to a
  // still-reachable address. Defeated once the GFW blocks the addresses
  // themselves and filters the TLS SNI.
  std::map<std::string, net::Ipv4> hosts_overrides;
};

struct PageLoadResult {
  bool ok = false;
  std::string error;
  sim::Time plt = 0;           // navigation start -> last resource done
  sim::Time main_ttfb = 0;     // main document request -> response complete
  bool first_visit = false;
  int resources = 0;
  int cache_hits = 0;          // 304 revalidations
  int failures = 0;            // subresources that failed
};

class Browser {
 public:
  Browser(transport::HostStack& stack, BrowserOptions options,
          std::uint32_t measure_tag = 0);

  // ---- proxy configuration ----
  void setFixedProxy(ProxyDecision decision);
  void setPac(PacScript pac);
  // Downloads a PAC file over plain HTTP (how ScholarCloud users set up) and
  // installs it. cb(false) when the fetch or parse fails.
  void loadPacFrom(const Url& pac_url, std::function<void(bool)> cb);

  // ---- navigation ----
  void loadPage(const std::string& host, std::function<void(PageLoadResult)> cb);

  // Small single-object fetch through the same egress path; the RTT probe
  // for Fig. 5b.
  void pingOrigin(const std::string& host,
                  std::function<void(std::optional<sim::Time>)> cb);

  // ---- state management ----
  void clearCaches();  // cold-start: DNS, TLS tickets, content, HSTS, visits
  void setDnsServer(net::Ipv4 server);

  dns::Resolver& resolver() noexcept { return resolver_; }
  TlsSessionCache& tlsCache() noexcept { return tls_cache_; }
  transport::HostStack& stack() noexcept { return stack_; }
  std::uint32_t measureTag() const noexcept { return tag_; }

  ProxyDecision decisionFor(const std::string& host) const;

 private:
  friend class PageLoadOp;

  using FetchCb = std::function<void(std::optional<Response>)>;

  // Core single-resource fetch (no redirect following).
  void fetchUrl(const Url& url, bool conditional, FetchCb cb);
  // Walks the decision's failover chain: hop 0, then each fallback in order,
  // until one yields a stream (like a real browser handling
  // "PROXY a; PROXY b; DIRECT").
  void acquireStream(const ProxyDecision& decision, const Url& url,
                     transport::Connector::ConnectHandler cb);
  void acquireHop(std::shared_ptr<std::vector<ProxyHop>> hops,
                  std::size_t index, const Url& url,
                  transport::Connector::ConnectHandler cb);
  void connectVia(const ProxyHop& hop, const Url& url,
                  transport::Connector::ConnectHandler cb);
  void finishTls(transport::Stream::Ptr raw, const Url& url,
                 transport::Connector::ConnectHandler cb);

  static std::string poolKey(const ProxyDecision& d, const Url& url);
  transport::Stream::Ptr takePooled(const std::string& key);
  void offerPooled(const std::string& key, transport::Stream::Ptr stream);

  transport::HostStack& stack_;
  BrowserOptions options_;
  std::uint32_t tag_;
  dns::Resolver resolver_;
  TlsSessionCache tls_cache_;

  bool has_fixed_proxy_ = false;
  ProxyDecision fixed_proxy_;
  std::optional<PacScript> pac_;

  std::unordered_map<std::string, std::string> etag_cache_;  // url -> etag
  std::set<std::string> visited_hosts_;
  std::set<std::string> hsts_hosts_;

  struct Pooled {
    transport::Stream::Ptr stream;
    sim::Time expires;
  };
  std::unordered_map<std::string, std::vector<Pooled>> pool_;
};

}  // namespace sc::http
