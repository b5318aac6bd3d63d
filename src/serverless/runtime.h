// The US-side half of one ephemeral endpoint: what the cloud function
// actually runs. A FunctionRuntime is a stripped-down RemoteProxy behind a
// TLS listener — it terminates the fronted TLS (any SNI is accepted; the
// front domain is the *gateway's* camouflage, the function itself just
// serves whoever completed the handshake and speaks the tunnel secret),
// speaks the server side of the blinded mux tunnel, and splices each OPEN
// onto an upstream fetched with its local uncensored resolver.
//
// There is no authorized-peers list here, unlike RemoteProxy: endpoints are
// ephemeral (a probe that confirms one confirms an IP that will be gone in
// minutes), so the protection budget is spent on the tunnel secret instead.
// A connection that completes TLS but fails the tunnel handshake produces
// no plaintext and is closed by the Tunnel layer.
//
// The cold start happens here: a connection that arrives before `warm_at`
// is accepted by TCP, but its TLS handshake waits until the function is
// warm. Every OPEN is one invocation, billed to the CostModel.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/tunnel.h"
#include "dns/resolver.h"
#include "http/tls.h"
#include "serverless/cost.h"
#include "transport/host_stack.h"

namespace sc::serverless {

struct RuntimeOptions {
  net::Port port = 443;
  std::string cert_name;  // what the TLS layer presents (fronted CDN cert)
  Bytes tunnel_secret;
  crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
  net::Ipv4 dns_server;
  double cycles_per_request = 4e6;  // function CPU per relayed stream
};

class FunctionRuntime {
 public:
  // `cost` may be null (no accounting).
  FunctionRuntime(transport::HostStack& stack, RuntimeOptions options,
                  sim::Time warm_at = 0, CostModel* cost = nullptr);

  std::uint64_t tunnelsAccepted() const noexcept { return tunnels_; }
  std::uint64_t streamsServed() const noexcept { return streams_; }

 private:
  void onConnection(transport::TcpSocket::Ptr sock);
  void accept(transport::TcpSocket::Ptr sock);
  void onOpen(transport::Stream::Ptr stream, transport::ConnectTarget target);

  transport::HostStack& stack_;
  RuntimeOptions options_;
  sim::Time warm_at_;
  CostModel* cost_;
  dns::Resolver resolver_;
  http::TlsAcceptor acceptor_;
  transport::TcpListener::Ptr listener_;
  std::unordered_set<core::Tunnel::Ptr> tunnels_alive_;
  std::uint64_t tunnels_ = 0;
  std::uint64_t streams_ = 0;
};

}  // namespace sc::serverless
