// ScholarCloud domestic proxy: the China-side half of the split-proxy (§3).
//
// This is the component users actually touch — and all they touch is one
// browser setting: the PAC URL this proxy serves at /proxy.pac. The PAC
// diverts only the visible whitelist of legal-but-blocked domains here;
// everything else stays DIRECT. Whitelisted requests ride a blinded mux
// tunnel to a remote proxy, opened through the installed TunnelProvider:
//   - plain-HTTP requests (absolute-form GET) open an AES-encrypted stream;
//   - CONNECT requests (HTTPS) open a passthrough stream — the content is
//     already end-to-end encrypted, so no double encryption.
// Non-whitelisted requests are refused with 403: the proxy "does not modify
// the traffic at all", and agencies can audit exactly what it carries.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fleet_api.h"
#include "http/pac.h"
#include "http/server.h"
#include "http/socks.h"

namespace sc::core {

struct DomesticProxyOptions {
  net::Port http_port = 8080;
  std::vector<std::string> whitelist;  // e.g. {"scholar.google.com"}
  // Per-request work of the real deployment's user-space proxy (whitelist
  // check, user registry, logging, blinding) on its single-core VM. Light
  // enough that the service scales linearly in Fig. 7, as the paper found.
  double cycles_per_request = 6e6;
};

class DomesticProxy {
 public:
  DomesticProxy(transport::HostStack& stack, DomesticProxyOptions options,
                std::uint32_t measure_tag = 0);

  net::Endpoint proxyEndpoint() const {
    return net::Endpoint{stack_.node().primaryIp(), options_.http_port};
  }
  http::Url pacUrl() const;

  // ---- whitelist management (agencies can demand changes, §3) ----
  bool isWhitelisted(const std::string& host) const;
  void addToWhitelist(const std::string& domain);
  void removeFromWhitelist(const std::string& domain);
  const std::vector<std::string>& whitelist() const noexcept {
    return options_.whitelist;
  }
  http::PacScript buildPac() const;

  // ---- blinding agility ----
  // Re-keys every live tunnel of the installed provider.
  void rotateBlinding(std::uint32_t new_epoch);
  // Operators can rotate on a schedule without manual intervention: every
  // `interval` the epoch is bumped on all tunnels. Pass 0 to stop.
  void autoRotateBlinding(sim::Time interval);
  std::uint32_t blindingEpoch() const noexcept { return epoch_; }

  // ---- §6 extension: non-HTTP(S) content ----
  // The paper calls the web-only design a double-edged sword; this is the
  // future-work fix: an optional SOCKS5 port on the domestic proxy that
  // carries arbitrary TCP to *whitelisted* hosts through the same blinded
  // tunnel (whitelist discipline and legalization story unchanged).
  void enableSocks(net::Port port = 1080);
  std::uint64_t socksStreams() const noexcept { return socks_streams_; }

  // ---- ops visibility ----
  std::size_t usersServed() const noexcept { return users_.size(); }
  std::uint64_t requestsProxied() const noexcept { return proxied_; }
  std::uint64_t requestsDenied() const noexcept { return denied_; }
  std::uint64_t pacDownloads() const noexcept { return pac_downloads_; }

  // ICP registration bookkeeping (filled in by Deployment).
  void setIcpNumber(std::string number) { icp_number_ = std::move(number); }
  const std::string& icpNumber() const noexcept { return icp_number_; }

  // ---- tunnel provider ----
  // Every stream open goes through the installed provider (a fleet:
  // balancing, health, failover), and its
  // ResponseCache (if any) short-circuits repeat GETs domestically. With no
  // provider installed (nullptr) every proxied request fails with 502.
  void setTunnelProvider(TunnelProvider* provider) { provider_ = provider; }
  TunnelProvider* tunnelProvider() const noexcept { return provider_; }
  std::uint64_t cacheHits() const noexcept { return cache_hits_; }

 private:
  void noteProxied() {
    ++proxied_;
    if (c_proxied_ != nullptr) c_proxied_->inc();
  }
  void noteDenied() {
    ++denied_;
    if (c_denied_ != nullptr) c_denied_->inc();
  }

  // Single seam all three handlers (HTTP, CONNECT, SOCKS) go through:
  // the installed TunnelProvider's stream, or nullptr without one.
  void openProxiedStream(net::Ipv4 client, transport::ConnectTarget target,
                         bool passthrough, TunnelProvider::StreamHandler fn);
  net::Ipv4 peerOf(const http::Request& req);
  void handleHttpRequest(http::Request&& req,
                         http::HttpServer::Respond respond);
  void handleConnect(const http::Request& req,
                     transport::Stream::Ptr client,
                     http::HttpServer::Respond respond);

  void onSocksRequest(transport::ConnectTarget target,
                      transport::Stream::Ptr client,
                      std::function<void(bool)> respond);

  transport::HostStack& stack_;
  DomesticProxyOptions options_;
  std::uint32_t tag_;
  std::unique_ptr<http::HttpServer> server_;
  std::unique_ptr<http::SocksServer> socks_;
  transport::TcpListener::Ptr socks_listener_;
  std::uint64_t socks_streams_ = 0;
  std::uint32_t epoch_ = 0;
  sim::EventHandle rotate_timer_;
  std::set<net::Ipv4> users_;
  std::uint64_t proxied_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t pac_downloads_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::string icp_number_;
  TunnelProvider* provider_ = nullptr;

  // Pre-resolved ops metrics (null without a hub).
  obs::Counter* c_proxied_ = nullptr;
  obs::Counter* c_denied_ = nullptr;
  obs::Counter* c_pac_downloads_ = nullptr;
  obs::Counter* c_rotations_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
};

}  // namespace sc::core
