#include "tor/meek.h"

#include "util/base64.h"

namespace sc::tor {

// ----------------------------------------------------------------- CDN front

FrontedCdn::FrontedCdn(transport::HostStack& stack, std::string front_domain)
    : stack_(stack), front_domain_(std::move(front_domain)) {
  http::ServerOptions opts;
  opts.port = 443;
  opts.tls = true;
  opts.cert_name = front_domain_;
  opts.cycles_per_request = 8e5;  // CDN edges are fast
  server_ = std::make_unique<http::HttpServer>(stack_, opts);
  server_->setDefaultHandler(
      [this](const http::Request& req, http::HttpServer::Respond respond) {
        forward(req, std::move(respond));
      });
}

void FrontedCdn::addOrigin(const std::string& host_header,
                           net::Endpoint origin) {
  origins_[host_header] = origin;
}

void FrontedCdn::withUpstream(
    const std::string& host, net::Endpoint origin,
    std::function<void(transport::Stream::Ptr)> cb) {
  auto& idle = pool_[host];
  while (!idle.empty()) {
    auto stream = idle.back();
    idle.pop_back();
    if (stream->connected()) {
      cb(std::move(stream));
      return;
    }
  }
  stack_.directConnector()->connect(transport::ConnectTarget::byAddress(origin),
                                    std::move(cb));
}

void FrontedCdn::forward(const http::Request& req,
                         http::HttpServer::Respond respond) {
  const auto it = origins_.find(req.host());
  if (it == origins_.end()) {
    http::Response resp;
    resp.status = 404;
    resp.reason = http::statusReason(404);
    respond(std::move(resp));
    return;
  }
  ++fronted_;
  const std::string host = req.host();
  auto respond_shared =
      std::make_shared<http::HttpServer::Respond>(std::move(respond));
  withUpstream(
      host, it->second,
      [this, host, req, respond_shared](transport::Stream::Ptr upstream) {
        if (upstream == nullptr) {
          http::Response resp;
          resp.status = 502;
          resp.reason = http::statusReason(502);
          (*respond_shared)(std::move(resp));
          return;
        }
        http::HttpClient::fetchOn(
            upstream, stack_.sim(), req, 30 * sim::kSecond,
            [this, host, upstream,
             respond_shared](std::optional<http::Response> r) {
              if (!r.has_value()) {
                upstream->close();
                http::Response resp;
                resp.status = 504;
                resp.reason = http::statusReason(504);
                (*respond_shared)(std::move(resp));
                return;
              }
              pool_[host].push_back(upstream);  // keep-alive reuse
              (*respond_shared)(std::move(*r));
            });
      });
}

// ------------------------------------------------------------- meek server

MeekServer::MeekServer(transport::HostStack& stack,
                       net::Endpoint bridge_or_port, net::Port http_port)
    : stack_(stack), bridge_(bridge_or_port) {
  http::ServerOptions opts;
  opts.port = http_port;
  server_ = std::make_unique<http::HttpServer>(stack_, opts);
  server_->setDefaultHandler(
      [this](const http::Request& req, http::HttpServer::Respond respond) {
        onRequest(req, std::move(respond));
      });
}

void MeekServer::onRequest(const http::Request& req,
                           http::HttpServer::Respond respond) {
  const std::string session_id =
      req.headers.get("x-session-id").value_or("");
  if (session_id.empty()) {
    http::Response resp;
    resp.status = 400;
    resp.reason = http::statusReason(400);
    respond(std::move(resp));
    return;
  }

  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    auto session = std::make_shared<Session>();
    it = sessions_.emplace(session_id, session).first;
    // Open the TLS cell link to the bridge's OR port.
    stack_.directConnector()->connect(
        transport::ConnectTarget::byAddress(bridge_),
        [this, session](transport::Stream::Ptr raw) {
          if (raw == nullptr) {
            session->link_failed = true;
            return;
          }
          http::TlsClientOptions tls;
          tls.sni = "bridge.local";
          tls.fingerprint = "tor-relay-link";
          http::TlsStream::clientHandshake(
              std::move(raw), stack_.sim(), tls, nullptr,
              [session](http::TlsStream::Ptr link) {
                if (link == nullptr) {
                  session->link_failed = true;
                  return;
                }
                session->link = link;
                // sessions_ owns the session; its link only observes it.
                std::weak_ptr<Session> weak = session;
                link->setOnData([weak](ByteView data) {
                  const auto session = weak.lock();
                  if (session == nullptr) return;
                  appendBytes(session->downstream, data);
                  // Wake a parked long-poll immediately.
                  if (auto finish = std::move(session->pending_finish)) {
                    session->hold_timer.cancel();
                    finish();
                  }
                });
                link->setOnClose([weak] {
                  const auto session = weak.lock();
                  if (session == nullptr) return;
                  session->link_failed = true;
                  if (auto finish = std::move(session->pending_finish)) {
                    session->hold_timer.cancel();
                    finish();
                  }
                });
              });
        });
  }

  auto session = it->second;
  // Push upstream bytes (the link buffers sends internally if still
  // connecting thanks to Stream's pending buffer semantics — but the link
  // pointer may not exist yet; queue through a retry in that case).
  const Bytes upstream(req.body.begin(), req.body.end());
  if (!upstream.empty()) {
    if (session->link != nullptr) {
      session->link->send(upstream);
    } else if (!session->link_failed) {
      // Link still connecting: deliver once it exists.
      auto self_stack = &stack_;
      // Each pending retry owns the retry function; it does not own itself.
      auto deliver = std::make_shared<std::function<void(int)>>();
      *deliver = [session, upstream, self_stack,
                  weak = std::weak_ptr(deliver)](int tries) {
        if (session->link != nullptr) {
          session->link->send(upstream);
          return;
        }
        if (session->link_failed || tries > 50) return;
        self_stack->sim().schedule(
            20 * sim::kMillisecond,
            [retry = weak.lock(), tries] { (*retry)(tries + 1); });
      };
      (*deliver)(0);
    }
  }

  // Long-poll semantics: answer immediately when downstream bytes are
  // already buffered; otherwise park the response and finish the moment the
  // bridge produces data (or the hold window expires).
  // Parked in the session it answers, so it only observes the session.
  auto finish = [weak = std::weak_ptr(session), respond = std::move(respond)] {
    const auto session = weak.lock();
    if (session == nullptr) return;
    session->pending_finish = nullptr;
    http::Response resp;
    if (session->link_failed && session->downstream.empty()) {
      resp.status = 502;
      resp.reason = http::statusReason(502);
    } else {
      resp.headers.set("content-type", "application/octet-stream");
      resp.body.swap(session->downstream);
    }
    respond(std::move(resp));
  };
  if (!session->downstream.empty() || session->link_failed) {
    finish();
    return;
  }
  // Supersede any previous parked poll (shouldn't happen with a compliant
  // client, but don't leak the old responder if it does).
  if (auto old = std::move(session->pending_finish)) {
    session->hold_timer.cancel();
    old();
  }
  session->pending_finish = finish;
  session->hold_timer =
      stack_.sim().schedule(100 * sim::kMillisecond, [session] {
        if (auto parked = std::move(session->pending_finish)) parked();
      });
}

// ------------------------------------------------------------- meek client

MeekClient::MeekClient(transport::HostStack& stack, MeekClientOptions options,
                       std::uint32_t tag)
    : stack_(stack), options_(std::move(options)), tag_(tag) {}

MeekClient::Ptr MeekClient::open(transport::HostStack& stack,
                                 MeekClientOptions options,
                                 std::uint32_t measure_tag) {
  auto c = Ptr(new MeekClient(stack, std::move(options), measure_tag));
  c->start();
  return c;
}

void MeekClient::start() {
  session_id_ = toHex(stack_.sim().rng().randomBytes(8));
  schedulePoll(options_.poll_interval);
}

void MeekClient::send(Bytes data) {
  if (closed_) return;
  appendBytes(out_buffer_, data);
  if (!in_flight_) pollNow();
}

void MeekClient::close() {
  closed_ = true;
  poll_timer_.cancel();
  if (conn_ != nullptr) {
    conn_->setOnData(nullptr);
    conn_->setOnClose(nullptr);
    conn_->close();
    conn_ = nullptr;
  }
}

void MeekClient::schedulePoll(sim::Time delay) {
  if (closed_) return;
  poll_timer_.cancel();
  auto weak = std::weak_ptr(shared_from_this());
  poll_timer_ = stack_.sim().schedule(delay, [weak] {
    if (auto self = weak.lock()) {
      if (!self->in_flight_) self->pollNow();
    }
  });
}

void MeekClient::ensureConnection(
    std::function<void(transport::Stream::Ptr)> cb) {
  if (conn_ != nullptr && conn_->connected()) {
    cb(conn_);
    return;
  }
  conn_ = nullptr;
  auto self = shared_from_this();
  stack_.directConnector(tag_)->connect(
      transport::ConnectTarget::byAddress(options_.cdn),
      [self, cb = std::move(cb)](transport::Stream::Ptr raw) {
        if (raw == nullptr) {
          cb(nullptr);
          return;
        }
        http::TlsClientOptions tls;
        tls.sni = self->options_.front_domain;  // the front: innocuous SNI
        tls.fingerprint = self->options_.tls_fingerprint;
        http::TlsStream::clientHandshake(
            std::move(raw), self->stack_.sim(), tls, &self->tls_cache_,
            [self, cb](http::TlsStream::Ptr tls_stream) {
              if (tls_stream == nullptr) {
                cb(nullptr);
                return;
              }
              self->conn_ = tls_stream;
              cb(tls_stream);
            });
      });
}

void MeekClient::pollNow() {
  if (closed_ || in_flight_) return;
  in_flight_ = true;
  ++polls_;

  http::Request req;
  req.method = "POST";
  req.target = "/meek";
  req.headers.set("host", options_.bridge_host_header);  // fronted inner host
  req.headers.set("x-session-id", session_id_);
  req.body.swap(out_buffer_);

  auto self = shared_from_this();
  ensureConnection([self, req = std::move(req)](transport::Stream::Ptr conn) {
    if (conn == nullptr) {
      self->in_flight_ = false;
      // Requeue the body and retry later.
      Bytes body = req.body;
      if (!body.empty()) {
        Bytes merged = std::move(body);
        appendBytes(merged, self->out_buffer_);
        self->out_buffer_ = std::move(merged);
      }
      self->schedulePoll(self->options_.poll_interval * 3);
      return;
    }
    http::HttpClient::fetchOn(
        conn, self->stack_.sim(), req, 20 * sim::kSecond,
        [self](std::optional<http::Response> resp) {
          self->in_flight_ = false;
          if (self->closed_) return;
          if (!resp.has_value() || resp->status != 200) {
            self->conn_ = nullptr;  // force reconnect next poll
            self->schedulePoll(self->options_.poll_interval * 2);
            return;
          }
          if (!resp->body.empty()) self->emitData(resp->body);
          // Fast follow-up when data is flowing; steady poll otherwise.
          const bool active =
              !resp->body.empty() || !self->out_buffer_.empty();
          if (!self->out_buffer_.empty()) {
            self->pollNow();
          } else {
            // Fast-poll while data is moving (real meek ramps the same way).
            self->schedulePoll(active ? self->options_.poll_interval / 10
                                      : self->options_.poll_interval);
          }
        });
  });
}

}  // namespace sc::tor
