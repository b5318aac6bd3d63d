#include "serverless/runtime.h"

#include "obs/hub.h"
#include "transport/stream.h"

namespace sc::serverless {

FunctionRuntime::FunctionRuntime(transport::HostStack& stack,
                                 RuntimeOptions options, sim::Time warm_at,
                                 CostModel* cost)
    : stack_(stack),
      options_(std::move(options)),
      warm_at_(warm_at),
      cost_(cost),
      resolver_(stack, options_.dns_server),
      acceptor_(options_.cert_name, stack.sim()) {
  listener_ = stack_.tcpListen(options_.port,
                               [this](transport::TcpSocket::Ptr sock) {
                                 onConnection(std::move(sock));
                               });
}

void FunctionRuntime::onConnection(transport::TcpSocket::Ptr sock) {
  const sim::Time cold_left = warm_at_ - stack_.sim().now();
  if (cold_left > 0) {
    // The ClientHello waits in the socket's buffer until the function is
    // up. A connection closed meanwhile is dropped: its close has already
    // fired, and a handshake on it would never end.
    stack_.sim().schedule(cold_left, [this, sock = std::move(sock)]() mutable {
      using State = transport::TcpSocket::State;
      if (sock->state() == State::kSynReceived ||
          sock->state() == State::kEstablished)
        accept(std::move(sock));
    });
    return;
  }
  accept(std::move(sock));
}

void FunctionRuntime::accept(transport::TcpSocket::Ptr sock) {
  acceptor_.accept(std::move(sock), [this](http::TlsStream::Ptr tls) {
    if (tls == nullptr) return;
    ++tunnels_;
    core::Tunnel::Options topts;
    topts.secret = options_.tunnel_secret;
    topts.blinding_mode = options_.blinding_mode;
    topts.client_side = false;
    auto tunnel = core::Tunnel::create(tls, stack_.sim(), std::move(topts));
    tunnel->setOpenHandler([this](transport::Stream::Ptr stream,
                                  transport::ConnectTarget target,
                                  bool passthrough) {
      (void)passthrough;
      onOpen(std::move(stream), std::move(target));
    });
    tunnels_alive_.insert(tunnel);
    tunnel->setOnClose([this, raw = tunnel.get()] {
      std::erase_if(tunnels_alive_, [raw](const core::Tunnel::Ptr& t) {
        return t.get() == raw;
      });
    });
  });
}

void FunctionRuntime::onOpen(transport::Stream::Ptr stream,
                             transport::ConnectTarget target) {
  ++streams_;
  if (cost_ != nullptr) cost_->invocation();

  auto connect_upstream = [this, stream](net::Ipv4 ip, net::Port port) {
    // Function invocations are metered CPU like any relay (Fig. 7 framing);
    // the cold start was paid once, before the first TLS accept.
    stack_.cpu().submit(options_.cycles_per_request, [this, stream, ip, port] {
      stack_.directConnector()->connect(
          transport::ConnectTarget::byAddress({ip, port}),
          [stream](transport::Stream::Ptr upstream) {
            if (upstream == nullptr) {
              stream->close();
              return;
            }
            transport::bridgeStreams(stream, upstream);
          });
    });
  };

  if (target.byName()) {
    const net::Port port = target.port;
    resolver_.resolve(target.host,
                      [stream, port, connect_upstream](
                          std::optional<net::Ipv4> ip) {
                        if (!ip.has_value()) {
                          stream->close();
                          return;
                        }
                        connect_upstream(*ip, port);
                      });
  } else {
    connect_upstream(target.ip, target.port);
  }
}

}  // namespace sc::serverless
