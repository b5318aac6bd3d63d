#include "http/server.h"

#include <vector>

#include "util/strings.h"

namespace sc::http {

namespace {
// First in, first out over a vector that is emptied whenever it drains, so
// it allocates nothing until used and at most one buffer after.
template <typename T>
class Fifo {
 public:
  void push(T item) { items_.push_back(std::move(item)); }
  T pop() {
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};
}  // namespace

struct HttpServer::Session : std::enable_shared_from_this<HttpServer::Session> {
  HttpServer& server;
  transport::Stream::Ptr stream;
  net::Ipv4 peer;
  RequestParser parser;
  bool closing = false;
  // Requests waiting for the core and responses waiting to be written, in
  // the order their CPU jobs were submitted. The host's CpuQueue runs jobs
  // FIFO, so each job takes the front of its queue and its closure holds
  // only the session, small enough to need no allocation of its own.
  Fifo<Request> to_dispatch;
  Fifo<Response> to_write;

  Session(HttpServer& srv, transport::Stream::Ptr s, net::Ipv4 p)
      : server(srv), stream(std::move(s)), peer(p) {}

  // The server's session set owns the session until it closes; the
  // stream's handlers only observe it.
  void start() {
    std::weak_ptr<Session> weak = weak_from_this();
    stream->setOnData([weak](ByteView data) {
      if (auto self = weak.lock()) self->onData(data);
    });
    stream->setOnClose([weak] {
      if (auto self = weak.lock()) self->onClose();
    });
  }

  void onData(ByteView data) {
    auto requests = parser.feed(data);
    if (parser.malformed()) {
      stream->close();
      onClose();
      return;
    }
    for (auto& req : requests) {
      req.headers.set(kPeerHeader, peer.str());
      handleRequest(std::move(req));
      if (closing) break;
    }
  }

  void handleRequest(Request&& req) {
    ++server.requests_;
    if (req.method == "CONNECT" && server.connect_) {
      // Hand the raw stream over; this session is out of the HTTP business.
      // The proxy's per-request work is still charged to its core first.
      auto stream = this->stream;
      this->stream = nullptr;
      closing = true;
      stream->setOnData(nullptr);
      stream->setOnClose(nullptr);
      server.sessions_.erase(shared_from_this());
      HttpServer& srv = server;
      srv.stack_.cpu().submit(
          srv.options_.cycles_per_request,
          [&srv, req = std::move(req), stream] {
            srv.connect_(req, stream, [stream](Response resp) {
              stream->send(resp.serialize());
            });
          });
      return;
    }
    const bool close_after =
        iequals(req.headers.get("connection").value_or(""), "close");
    auto self = shared_from_this();

    // Charge CPU for request handling; respond once the core gets to it.
    to_dispatch.push(std::move(req));
    const double cycles = server.options_.cycles_per_request;
    server.stack_.cpu().submit(cycles, [self, close_after] {
      self->server.dispatch(
          self->to_dispatch.pop(), [self, close_after](Response resp) {
            if (self->closing || self->stream == nullptr) return;
            resp.headers.set("server", "sc-httpd/1.0");
            const double body_cycles =
                self->server.options_.cycles_per_body_byte *
                static_cast<double>(resp.body.size());
            self->to_write.push(std::move(resp));
            self->server.stack_.cpu().submit(body_cycles, [self, close_after] {
              const Response out = self->to_write.pop();
              if (self->closing || self->stream == nullptr) return;
              self->stream->send(out.serialize());
              if (close_after) {
                self->stream->close();
                self->onClose();
              }
            });
          });
    });
  }

  void onClose() {
    if (closing) return;
    closing = true;
    if (stream != nullptr) {
      stream->setOnData(nullptr);
      stream->setOnClose(nullptr);
      stream = nullptr;
    }
    auto self = shared_from_this();
    server.sessions_.erase(self);
  }
};

HttpServer::HttpServer(transport::HostStack& stack, ServerOptions options)
    : stack_(stack), options_(std::move(options)) {
  if (options_.tls) {
    acceptor_ = std::make_unique<TlsAcceptor>(
        options_.cert_name.empty() ? "server.example" : options_.cert_name,
        stack_.sim());
  }
  listener_ = stack_.tcpListen(
      options_.port, [this](transport::TcpSocket::Ptr sock) {
        const net::Ipv4 peer = sock->remote().ip;
        if (acceptor_ != nullptr) {
          acceptor_->accept(sock, [this, peer](TlsStream::Ptr tls) {
            if (tls != nullptr) onStream(tls, peer);
          });
        } else {
          onStream(sock, peer);
        }
      });

  default_ = [](Request&&, Respond respond) {
    Response resp;
    resp.status = 404;
    resp.reason = statusReason(404);
    respond(std::move(resp));
  };
}

HttpServer::~HttpServer() { stack_.tcpUnlisten(options_.port); }

void HttpServer::route(std::string path_prefix, Handler handler) {
  routes_.push_back(RouteEntry{std::move(path_prefix), std::move(handler)});
}

void HttpServer::onStream(transport::Stream::Ptr stream, net::Ipv4 peer) {
  auto session = std::make_shared<Session>(*this, std::move(stream), peer);
  sessions_.insert(session);
  session->start();
}

void HttpServer::dispatch(Request&& req, Respond respond) {
  // Strip absolute-form targets down to a path for matching.
  const auto url = Url::parse(req.target);
  const std::string_view path = url ? std::string_view(url->path) : req.target;

  const RouteEntry* best = nullptr;
  for (const auto& entry : routes_) {
    if (!startsWith(path, entry.prefix)) continue;
    if (best == nullptr || entry.prefix.size() > best->prefix.size())
      best = &entry;
  }
  if (best != nullptr) {
    best->handler(std::move(req), std::move(respond));
  } else {
    default_(std::move(req), std::move(respond));
  }
}

}  // namespace sc::http
