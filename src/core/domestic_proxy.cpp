#include "core/domestic_proxy.h"

#include "http/client.h"
#include "http/url.h"
#include "util/strings.h"

namespace sc::core {

DomesticProxy::DomesticProxy(transport::HostStack& stack,
                             DomesticProxyOptions options,
                             std::uint32_t measure_tag)
    : stack_(stack), options_(std::move(options)), tag_(measure_tag) {
  if (obs::Registry* reg = obs::registryOf(stack_.sim())) {
    c_proxied_ = reg->counter("sc.domestic.requests_proxied");
    c_denied_ = reg->counter("sc.domestic.requests_denied");
    c_pac_downloads_ = reg->counter("sc.domestic.pac_downloads");
    c_rotations_ = reg->counter("sc.domestic.blinding_rotations");
    // Written by the provider when it has no stream to give yet (the
    // fleet's pick retries); declared here so every deployment reports it.
    reg->counter("sc.domestic.pool_saturation");
    c_cache_hits_ = reg->counter("sc.domestic.cache_hits");
  }
  http::ServerOptions sopts;
  sopts.port = options_.http_port;
  sopts.cycles_per_request = options_.cycles_per_request;
  sopts.cycles_per_body_byte = 5.0;  // forwarding, not content assembly
  server_ = std::make_unique<http::HttpServer>(stack_, sopts);

  server_->route("/proxy.pac", [this](const http::Request&,
                                      http::HttpServer::Respond respond) {
    ++pac_downloads_;
    if (c_pac_downloads_ != nullptr) c_pac_downloads_->inc();
    http::Response resp;
    resp.headers.set("content-type", "application/x-ns-proxy-autoconfig");
    resp.body = toBytes(buildPac().toJavaScript());
    respond(std::move(resp));
  });

  server_->setDefaultHandler([this](http::Request&& req,
                                    http::HttpServer::Respond respond) {
    handleHttpRequest(std::move(req), std::move(respond));
  });
  server_->setConnectHandler(
      [this](const http::Request& req, transport::Stream::Ptr client,
             http::HttpServer::Respond respond) {
        handleConnect(req, std::move(client), std::move(respond));
      });
}

http::Url DomesticProxy::pacUrl() const {
  http::Url url;
  url.scheme = "http";
  url.host = stack_.node().primaryIp().str();
  url.port = options_.http_port;
  url.path = "/proxy.pac";
  return url;
}

http::PacScript DomesticProxy::buildPac() const {
  http::PacScript pac;
  const http::ProxyDecision via_proxy =
      http::ProxyDecision::httpProxy(proxyEndpoint());
  for (const auto& domain : options_.whitelist)
    pac.addDomainRule(domain, via_proxy);
  pac.setDefault(http::ProxyDecision::direct());
  return pac;
}

bool DomesticProxy::isWhitelisted(const std::string& host) const {
  for (const auto& domain : options_.whitelist) {
    if (dnsDomainIs(host, domain)) return true;
  }
  return false;
}

void DomesticProxy::addToWhitelist(const std::string& domain) {
  if (std::find(options_.whitelist.begin(), options_.whitelist.end(),
                domain) == options_.whitelist.end())
    options_.whitelist.push_back(domain);
}

void DomesticProxy::removeFromWhitelist(const std::string& domain) {
  std::erase(options_.whitelist, domain);
}

void DomesticProxy::openProxiedStream(net::Ipv4 client,
                                      transport::ConnectTarget target,
                                      bool passthrough,
                                      TunnelProvider::StreamHandler fn) {
  if (provider_ == nullptr) {
    fn(nullptr);
    return;
  }
  // The provider records its own pick span.
  provider_->withStream(client, target, passthrough, std::move(fn));
}

net::Ipv4 DomesticProxy::peerOf(const http::Request& req) {
  if (const auto peer = req.headers.get(http::HttpServer::kPeerHeader)) {
    if (const auto ip = net::Ipv4::parse(*peer)) {
      users_.insert(*ip);
      return *ip;
    }
  }
  return net::Ipv4{};
}

void DomesticProxy::rotateBlinding(std::uint32_t new_epoch) {
  epoch_ = new_epoch;
  if (c_rotations_ != nullptr) c_rotations_->inc();
  if (provider_ != nullptr) provider_->rotateBlinding(new_epoch);
}

void DomesticProxy::autoRotateBlinding(sim::Time interval) {
  rotate_timer_.cancel();
  if (interval <= 0) return;
  rotate_timer_ = stack_.sim().schedule(interval, [this, interval] {
    rotateBlinding(epoch_ + 1);
    autoRotateBlinding(interval);
  });
}

void DomesticProxy::enableSocks(net::Port port) {
  socks_ = std::make_unique<http::SocksServer>(
      [this](transport::ConnectTarget target, transport::Stream::Ptr client,
             std::function<void(bool)> respond) {
        onSocksRequest(std::move(target), std::move(client),
                       std::move(respond));
      });
  socks_listener_ = stack_.tcpListen(
      port, [this](transport::TcpSocket::Ptr sock) { socks_->accept(sock); });
}

void DomesticProxy::onSocksRequest(transport::ConnectTarget target,
                                   transport::Stream::Ptr client,
                                   std::function<void(bool)> respond) {
  // Same whitelist discipline as the HTTP paths: this extension widens the
  // *protocols* ScholarCloud can carry, never the *destinations*.
  if (!target.byName() || !isWhitelisted(target.host)) {
    noteDenied();
    respond(false);
    return;
  }
  openProxiedStream(
      net::Ipv4{}, std::move(target), /*passthrough=*/false,
      [this, client = std::move(client),
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        if (stream == nullptr) {
          noteDenied();
          respond(false);
          return;
        }
        noteProxied();
        ++socks_streams_;
        respond(true);
        transport::bridgeStreams(std::move(client), std::move(stream));
      });
}

void DomesticProxy::handleHttpRequest(http::Request&& req,
                                      http::HttpServer::Respond respond) {
  const auto url = http::Url::parse(req.target);
  const std::string host(url ? std::string_view(url->host) : req.host());
  const net::Ipv4 client = peerOf(req);

  if (!url.has_value() || !isWhitelisted(host)) {
    noteDenied();
    http::Response resp;
    resp.status = 403;
    resp.reason = http::statusReason(403);
    resp.body = toBytes("host not on the registered whitelist");
    respond(std::move(resp));
    return;
  }

  // Domestic-side cache: a repeat GET never crosses the border link.
  ResponseCache* cache =
      provider_ != nullptr ? provider_->responseCache() : nullptr;
  const bool cacheable = cache != nullptr && req.method == "GET";
  const std::string cache_key = host + url->path;
  if (cacheable) {
    const ResponseCache::Hit hit = cache->lookup(cache_key);
    // Zero-duration span: the consult is synchronous, but hit/miss counts
    // per access feed the phase breakdown.
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(sp->begin(obs::SpanKind::kCacheLookup, tag_,
                        hit.has_value() ? "hit" : "miss", cache_key),
              obs::SpanStatus::kOk, hit.has_value() ? 1 : 0);
    if (hit.has_value()) {
      ++cache_hits_;
      if (c_cache_hits_ != nullptr) c_cache_hits_->inc();
      noteProxied();
      http::Response resp = hit->get();
      resp.headers.set("x-cache", "hit");
      respond(std::move(resp));
      return;
    }
  }

  openProxiedStream(
      client, transport::ConnectTarget::byHostname(host, url->port),
      /*passthrough=*/false,
      [this, req = std::move(req), url, cacheable, cache_key,
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        // Plain HTTP rides an AES-encrypted tunnel stream (the "HTTPS-like
        // encrypted tunnel" of §3's data-security paragraph).
        if (stream == nullptr) {
          noteDenied();
          http::Response resp;
          resp.status = 502;
          resp.reason = http::statusReason(502);
          respond(std::move(resp));
          return;
        }
        noteProxied();
        http::Request upstream_req = std::move(req);
        upstream_req.target = url->path;  // absolute-form to origin-form
        upstream_req.headers.set("via", "scholarcloud/1.0");
        http::HttpClient::fetchOn(
            stream, stack_.sim(), std::move(upstream_req),
            kProxiedRequestTimeout,
            [this, stream, cacheable, cache_key = std::move(cache_key),
             respond = std::move(respond)](std::optional<http::Response> r) {
              stream->close();
              if (!r.has_value()) {
                http::Response resp;
                resp.status = 504;
                resp.reason = http::statusReason(504);
                respond(std::move(resp));
                return;
              }
              if (cacheable && r->status == 200) {
                // The key is built from the string this callback owns; the
                // enclosing lambda's copy was moved into it.
                if (ResponseCache* c = provider_ != nullptr
                                           ? provider_->responseCache()
                                           : nullptr)
                  c->insert(cache_key, *r);
              }
              respond(std::move(*r));
            });
      });
}

void DomesticProxy::handleConnect(const http::Request& req,
                                  transport::Stream::Ptr client,
                                  http::HttpServer::Respond respond) {
  // CONNECT target is authority-form "host:port", and the port is
  // mandatory (RFC 9112 §3.2.3): parsed with default 0, which no explicit
  // port can be, a missing one reads 0. A malformed target is refused like
  // a host off the whitelist, before any stream opens.
  const auto authority = http::parseAuthority(req.target, 0);
  const net::Ipv4 peer = peerOf(req);

  http::Response resp;
  if (!authority.has_value() || authority->port == 0 ||
      !isWhitelisted(authority->host)) {
    noteDenied();
    resp.status = 403;
    resp.reason = http::statusReason(403);
    respond(std::move(resp));
    client->close();
    return;
  }
  // HTTPS is already end-to-end encrypted: passthrough stream, no double
  // encryption (§3, "Data security and privacy").
  openProxiedStream(
      peer,
      transport::ConnectTarget::byHostname(authority->host, authority->port),
      /*passthrough=*/true,
      [this, client = std::move(client),
       respond = std::move(respond)](transport::Stream::Ptr stream) mutable {
        http::Response resp;
        if (stream == nullptr) {
          noteDenied();
          resp.status = 502;
          resp.reason = http::statusReason(502);
          respond(std::move(resp));
          client->close();
          return;
        }
        noteProxied();
        resp.status = 200;
        resp.reason = "Connection Established";
        respond(std::move(resp));
        transport::bridgeStreams(std::move(client), std::move(stream));
      });
}

}  // namespace sc::core
