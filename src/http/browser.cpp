#include "http/browser.h"

#include "http/socks.h"
#include "obs/hub.h"
#include "util/strings.h"

namespace sc::http {

namespace {
constexpr int kMaxParallelFetches = 6;
// Layout/JS between a page's fetch phases.
constexpr sim::Time kParseDelay = 60 * sim::kMillisecond;
constexpr sim::Time kRequestTimeout = 45 * sim::kSecond;
constexpr sim::Time kPoolIdleTimeout = 25 * sim::kSecond;
}  // namespace

Browser::Browser(transport::HostStack& stack, BrowserOptions options,
                 std::uint32_t measure_tag)
    : stack_(stack),
      options_(std::move(options)),
      tag_(measure_tag),
      resolver_(stack, options_.dns_server, measure_tag) {}

void Browser::setFixedProxy(ProxyDecision decision) {
  has_fixed_proxy_ = true;
  fixed_proxy_ = decision;
  pac_.reset();
}

void Browser::setPac(PacScript pac) {
  pac_ = std::move(pac);
  has_fixed_proxy_ = false;
}

void Browser::setDnsServer(net::Ipv4 server) {
  resolver_.setServer(server);
  resolver_.clearCache();
}

void Browser::clearCaches() {
  resolver_.clearCache();
  tls_cache_.clear();
  etag_cache_.clear();
  visited_hosts_.clear();
  hsts_hosts_.clear();
  pool_.clear();
}

ProxyDecision Browser::decisionFor(const std::string& host) const {
  if (has_fixed_proxy_) return fixed_proxy_;
  if (pac_.has_value()) return pac_->evaluate(host);
  return ProxyDecision::direct();
}

void Browser::loadPacFrom(const Url& pac_url, std::function<void(bool)> cb) {
  // PAC files are always fetched DIRECT (the proxy isn't configured yet).
  fetchUrl(pac_url, /*conditional=*/false,
           [this, cb = std::move(cb)](std::optional<Response> resp) {
             if (!resp || resp->status != 200) {
               cb(false);
               return;
             }
             auto script = PacScript::parseJavaScript(toString(resp->body));
             if (!script) {
               cb(false);
               return;
             }
             setPac(std::move(*script));
             cb(true);
           });
}

// ---------------------------------------------------------------- pooling

std::string Browser::poolKey(const ProxyDecision& d, const Url& url) {
  std::string key = url.scheme + "//" + url.host + ":" +
                    std::to_string(url.port) + "|";
  for (const ProxyHop& hop : d.hops()) {
    switch (hop.kind) {
      case ProxyKind::kDirect: key += "direct;"; break;
      case ProxyKind::kHttpProxy: key += "http:" + hop.proxy.str() + ";"; break;
      case ProxyKind::kSocks: key += "socks:" + hop.proxy.str() + ";"; break;
    }
  }
  return key;
}

transport::Stream::Ptr Browser::takePooled(const std::string& key) {
  auto it = pool_.find(key);
  if (it == pool_.end()) return nullptr;
  auto& vec = it->second;
  const sim::Time now = stack_.sim().now();
  while (!vec.empty()) {
    Pooled entry = std::move(vec.back());
    vec.pop_back();
    if (entry.expires > now && entry.stream->connected()) return entry.stream;
    entry.stream->close();
  }
  pool_.erase(it);
  return nullptr;
}

void Browser::offerPooled(const std::string& key,
                          transport::Stream::Ptr stream) {
  if (stream == nullptr || !stream->connected()) return;
  stream->setOnData(nullptr);
  stream->setOnClose(nullptr);
  pool_[key].push_back(
      Pooled{std::move(stream), stack_.sim().now() + kPoolIdleTimeout});
}

// ------------------------------------------------------------- stream setup

void Browser::finishTls(transport::Stream::Ptr raw, const Url& url,
                        transport::Connector::ConnectHandler cb) {
  if (raw == nullptr) {
    cb(nullptr);
    return;
  }
  if (!url.isHttps()) {
    cb(std::move(raw));
    return;
  }
  TlsClientOptions tls_opts;
  tls_opts.sni = url.host;
  tls_opts.fingerprint = options_.tls_fingerprint;
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTlsHandshake, tag_, "", url.host);
  TlsStream::clientHandshake(std::move(raw), stack_.sim(), tls_opts,
                             &tls_cache_,
                             [this, span, cb = std::move(cb)](TlsStream::Ptr tls) {
                               if (auto* sp = obs::spansOf(stack_.sim()))
                                 sp->end(span, tls != nullptr
                                                   ? obs::SpanStatus::kOk
                                                   : obs::SpanStatus::kError);
                               cb(std::move(tls));
                             });
}

void Browser::acquireStream(const ProxyDecision& decision, const Url& url,
                            transport::Connector::ConnectHandler cb) {
  auto hops = std::make_shared<std::vector<ProxyHop>>(decision.hops());
  acquireHop(std::move(hops), 0, url, std::move(cb));
}

void Browser::acquireHop(std::shared_ptr<std::vector<ProxyHop>> hops,
                         std::size_t index, const Url& url,
                         transport::Connector::ConnectHandler cb) {
  if (index >= hops->size()) {
    cb(nullptr);
    return;
  }
  const ProxyHop hop = (*hops)[index];
  connectVia(hop, url,
             [this, hops = std::move(hops), index, url,
              cb = std::move(cb)](transport::Stream::Ptr stream) mutable {
               if (stream != nullptr) {
                 cb(std::move(stream));
                 return;
               }
               acquireHop(std::move(hops), index + 1, url, std::move(cb));
             });
}

void Browser::connectVia(const ProxyHop& decision, const Url& url,
                         transport::Connector::ConnectHandler cb) {
  switch (decision.kind) {
    case ProxyKind::kDirect: {
      // Hosts-file overrides and IP-literal hosts (e.g. a PAC URL handed out
      // as http://10.3.0.1:8080) skip DNS entirely.
      std::optional<net::Ipv4> pinned = net::Ipv4::parse(url.host);
      if (!pinned.has_value()) {
        const auto it = options_.hosts_overrides.find(toLower(url.host));
        if (it != options_.hosts_overrides.end()) pinned = it->second;
      }
      if (pinned.has_value()) {
        auto direct = stack_.directConnector(tag_);
        direct->connect(
            transport::ConnectTarget::byAddress({*pinned, url.port}),
            [this, url, cb = std::move(cb)](transport::Stream::Ptr raw) {
              finishTls(std::move(raw), url, cb);
            });
        return;
      }
      resolver_.resolve(
          url.host, [this, url, cb = std::move(cb)](std::optional<net::Ipv4> ip) {
            if (!ip) {
              cb(nullptr);
              return;
            }
            auto direct = stack_.directConnector(tag_);
            direct->connect(
                transport::ConnectTarget::byAddress({*ip, url.port}),
                [this, url, cb](transport::Stream::Ptr raw) {
                  finishTls(std::move(raw), url, cb);
                });
          });
      return;
    }
    case ProxyKind::kHttpProxy: {
      auto direct = stack_.directConnector(tag_);
      direct->connect(
          transport::ConnectTarget::byAddress(decision.proxy),
          [this, url, cb = std::move(cb)](transport::Stream::Ptr raw) {
            if (raw == nullptr) {
              cb(nullptr);
              return;
            }
            if (!url.isHttps()) {
              cb(std::move(raw));  // absolute-form request on this stream
              return;
            }
            // CONNECT tunnel, then TLS to the origin through it.
            Request connect_req;
            connect_req.method = "CONNECT";
            connect_req.target = url.host + ":" + std::to_string(url.port);
            connect_req.headers.set("host", connect_req.target);
            obs::SpanId span = 0;
            if (auto* sp = obs::spansOf(stack_.sim()))
              span = sp->begin(obs::SpanKind::kProxyHop, tag_, "connect",
                               connect_req.target);
            HttpClient::fetchOn(
                raw, stack_.sim(), connect_req, kRequestTimeout,
                [this, url, raw, span, cb](std::optional<Response> resp) {
                  const bool ok = resp && resp->status == 200;
                  if (auto* sp = obs::spansOf(stack_.sim()))
                    sp->end(span,
                            ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError,
                            resp ? resp->status : 0);
                  if (!ok) {
                    raw->close();
                    cb(nullptr);
                    return;
                  }
                  finishTls(raw, url, cb);
                });
          });
      return;
    }
    case ProxyKind::kSocks: {
      auto socks =
          std::make_shared<SocksConnector>(stack_, decision.proxy, tag_);
      obs::SpanId span = 0;
      if (auto* sp = obs::spansOf(stack_.sim()))
        span = sp->begin(obs::SpanKind::kProxyHop, tag_, "socks",
                         decision.proxy.str());
      socks->connect(transport::ConnectTarget::byHostname(url.host, url.port),
                     [this, url, span, cb = std::move(cb),
                      socks](transport::Stream::Ptr raw) {
                       if (auto* sp = obs::spansOf(stack_.sim()))
                         sp->end(span, raw != nullptr
                                           ? obs::SpanStatus::kOk
                                           : obs::SpanStatus::kError);
                       finishTls(std::move(raw), url, cb);
                     });
      return;
    }
  }
}

// ------------------------------------------------------------------ fetch

void Browser::fetchUrl(const Url& url, bool conditional, FetchCb cb) {
  const ProxyDecision decision = decisionFor(url.host);
  const std::string key = poolKey(decision, url);

  Request req;
  req.method = "GET";
  const bool absolute_form =
      decision.kind == ProxyKind::kHttpProxy && !url.isHttps();
  req.target = absolute_form ? url.str() : url.path;
  req.headers.set("host", url.host);
  req.headers.set("user-agent", options_.tls_fingerprint);
  if (conditional) {
    const auto it = etag_cache_.find(url.str());
    if (it != etag_cache_.end())
      req.headers.set("if-none-match", it->second);
  }

  auto run = [this, url, key, req, cb = std::move(cb)](
                 transport::Stream::Ptr stream) mutable {
    if (stream == nullptr) {
      cb(std::nullopt);
      return;
    }
    // The fetch span covers request -> response on the acquired stream;
    // connection setup (DNS, TCP, TLS, proxy negotiation) has its own spans.
    obs::SpanId span = 0;
    if (auto* sp = obs::spansOf(stack_.sim()))
      span = sp->begin(obs::SpanKind::kUpstreamFetch, tag_, "", url.str());
    HttpClient::fetchOn(
        stream, stack_.sim(), req, kRequestTimeout,
        [this, url, key, span, stream, cb = std::move(cb)](
            std::optional<Response> resp) {
          if (auto* sp = obs::spansOf(stack_.sim()))
            sp->end(span,
                    resp.has_value() ? obs::SpanStatus::kOk
                                     : obs::SpanStatus::kError,
                    resp.has_value() ? resp->status : 0);
          if (resp.has_value()) {
            if (const auto etag = resp->headers.get("etag"))
              etag_cache_[url.str()] = *etag;
            const bool close_requested = iequals(
                resp->headers.get("connection").value_or(""), "close");
            if (!close_requested) offerPooled(key, stream);
          }
          cb(std::move(resp));
        });
  };

  if (auto pooled = takePooled(key)) {
    run(std::move(pooled));
    return;
  }
  acquireStream(decision, url, std::move(run));
}

// --------------------------------------------------------------- page load

namespace {
struct ParsedPage {
  std::vector<Url> subresources;
  std::optional<Url> account_url;
};

ParsedPage parsePage(ByteView body) {
  ParsedPage page;
  for (const auto& line : splitString(toString(body), '\n')) {
    if (startsWith(line, "RES ")) {
      const auto parts = splitString(line, ' ');
      if (parts.size() >= 2) {
        if (const auto url = Url::parse(parts[1]))
          page.subresources.push_back(*url);
      }
    } else if (startsWith(line, "ACCOUNT ")) {
      const auto parts = splitString(line, ' ');
      if (parts.size() >= 2) page.account_url = Url::parse(parts[1]);
    }
  }
  return page;
}
}  // namespace

class PageLoadOp : public std::enable_shared_from_this<PageLoadOp> {
 public:
  PageLoadOp(Browser& browser, std::string host,
             std::function<void(PageLoadResult)> cb)
      : browser_(browser), host_(std::move(host)), cb_(std::move(cb)) {}

  void start() {
    t0_ = browser_.stack_.sim().now();
    // The access root: every phase span recorded under this tag while the
    // page load is in flight parents to it (duration == PLT).
    if (auto* sp = obs::spansOf(browser_.stack_.sim()))
      access_span_ = sp->push(obs::SpanKind::kAccess, browser_.tag_, "", host_);
    result_.first_visit = !browser_.visited_hosts_.contains(host_);
    Url url;
    url.host = host_;
    // A first visit types the bare name, so it starts on port 80 unless
    // HSTS already pins the host to https.
    if (result_.first_visit && !browser_.hsts_hosts_.contains(host_)) {
      url.scheme = "http";
      url.port = 80;
    } else {
      url.scheme = "https";
      url.port = 443;
    }
    fetchMain(url, /*redirects_left=*/3);
  }

 private:
  void fetchMain(const Url& url, int redirects_left) {
    auto self = shared_from_this();
    const sim::Time t_req = browser_.stack_.sim().now();
    browser_.fetchUrl(url, /*conditional=*/false,
                      [self, url, redirects_left,
                       t_req](std::optional<Response> resp) {
                        self->onMainResponse(url, redirects_left, t_req,
                                             std::move(resp));
                      });
  }

  void onMainResponse(const Url& /*url*/, int redirects_left, sim::Time t_req,
                      std::optional<Response> resp) {
    if (!resp.has_value()) {
      finish(false, "main document fetch failed");
      return;
    }
    if (resp->status == 301 || resp->status == 302) {
      const auto loc = resp->headers.get("location");
      const auto next = loc ? Url::parse(*loc) : std::nullopt;
      if (!next || redirects_left == 0) {
        finish(false, "bad redirect");
        return;
      }
      if (next->isHttps()) browser_.hsts_hosts_.insert(next->host);
      fetchMain(*next, redirects_left - 1);
      return;
    }
    if (resp->status != 200) {
      finish(false, "main document status " + std::to_string(resp->status));
      return;
    }
    result_.main_ttfb = browser_.stack_.sim().now() - t_req;

    const ParsedPage page = parsePage(resp->body);
    pending_urls_.assign(page.subresources.begin(), page.subresources.end());
    if (result_.first_visit && page.account_url.has_value())
      pending_urls_.push_back(*page.account_url);

    // Parse/render pause before the subresource wave.
    auto self = shared_from_this();
    browser_.stack_.sim().schedule(kParseDelay,
                                   [self] { self->pumpFetches(); });
  }

  void pumpFetches() {
    if (pending_urls_.empty() && in_flight_ == 0) {
      finish(true, "");
      return;
    }
    auto self = shared_from_this();
    while (!pending_urls_.empty() &&
           in_flight_ < kMaxParallelFetches) {
      const Url url = pending_urls_.front();
      pending_urls_.erase(pending_urls_.begin());
      ++in_flight_;
      browser_.fetchUrl(url, /*conditional=*/true,
                        [self](std::optional<Response> resp) {
                          --self->in_flight_;
                          if (!resp.has_value()) {
                            ++self->result_.failures;
                          } else {
                            ++self->result_.resources;
                            if (resp->status == 304) ++self->result_.cache_hits;
                          }
                          self->pumpFetches();
                        });
    }
  }

  void finish(bool ok, const std::string& error) {
    if (done_) return;
    done_ = true;
    result_.ok = ok;
    result_.error = error;
    result_.plt = browser_.stack_.sim().now() - t0_;
    if (auto* sp = obs::spansOf(browser_.stack_.sim()))
      sp->pop(access_span_,
              ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError,
              result_.resources);
    if (ok) browser_.visited_hosts_.insert(host_);
    auto cb = std::move(cb_);
    cb(std::move(result_));
  }

  Browser& browser_;
  std::string host_;
  std::function<void(PageLoadResult)> cb_;
  sim::Time t0_ = 0;
  obs::SpanId access_span_ = 0;
  PageLoadResult result_;
  std::vector<Url> pending_urls_;
  int in_flight_ = 0;
  bool done_ = false;
};

void Browser::loadPage(const std::string& host,
                       std::function<void(PageLoadResult)> cb) {
  std::make_shared<PageLoadOp>(*this, host, std::move(cb))->start();
}

void Browser::pingOrigin(const std::string& host,
                         std::function<void(std::optional<sim::Time>)> cb) {
  Url url;
  url.scheme = "https";
  url.port = 443;
  url.host = host;
  url.path = "/generate_204";
  // Two fetches: the first warms the connection (DNS, TCP, TLS, proxy
  // negotiation — untimed), the second measures one application round trip
  // on the pooled connection. That is the "network-level efficiency" RTT of
  // Fig. 5b, without conflating it with setup cost.
  fetchUrl(url, /*conditional=*/false,
           [this, url, cb = std::move(cb)](std::optional<Response> warm) {
             if (!warm.has_value()) {
               cb(std::nullopt);
               return;
             }
             const sim::Time t0 = stack_.sim().now();
             fetchUrl(url, /*conditional=*/false,
                      [this, t0, cb](std::optional<Response> resp) {
                        if (!resp.has_value()) {
                          cb(std::nullopt);
                          return;
                        }
                        cb(stack_.sim().now() - t0);
                      });
           });
}

}  // namespace sc::http
