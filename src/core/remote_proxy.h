// ScholarCloud remote proxy: the US-side half of the split-proxy (§3).
//
// Accepts blinded tunnels from authorized domestic proxies only; everything
// else — including GFW active probes — gets the mute treatment: accept,
// read, never answer, close. (Probes therefore "confirm" the server, but
// flows to it are protected by the domestic side's ICP registration.)
// For each OPEN it resolves the target with its local (uncensored) resolver,
// connects, and splices the upstream onto the tunnel stream.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/tunnel.h"
#include "dns/resolver.h"
#include "transport/host_stack.h"

namespace sc::core {

struct RemoteProxyOptions {
  net::Port port = 443;
  Bytes tunnel_secret;
  crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
  net::Ipv4 dns_server;
  std::vector<net::Ipv4> authorized_peers;  // domestic proxy addresses
};

class RemoteProxy {
 public:
  RemoteProxy(transport::HostStack& stack, RemoteProxyOptions options);

  std::uint64_t tunnelsAccepted() const noexcept { return tunnels_; }
  std::uint64_t streamsServed() const noexcept { return streams_; }
  std::uint64_t probesIgnored() const noexcept { return rejected_; }

 private:
  void onTunnelConnection(transport::TcpSocket::Ptr sock);
  void onOpen(transport::Stream::Ptr stream, transport::ConnectTarget target,
              bool passthrough);

  transport::HostStack& stack_;
  RemoteProxyOptions options_;
  dns::Resolver resolver_;
  transport::TcpListener::Ptr listener_;
  std::unordered_set<Tunnel::Ptr> tunnels_alive_;
  std::uint64_t tunnels_ = 0;
  std::uint64_t streams_ = 0;
  std::uint64_t rejected_ = 0;

  // Pre-resolved ops metrics (null without a hub).
  obs::Counter* c_tunnels_ = nullptr;
  obs::Counter* c_streams_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
};

}  // namespace sc::core
