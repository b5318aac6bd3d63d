// Active probing (Ensafi et al., "Examining How the Great Firewall Discovers
// Hidden Circumvention Servers"): when DPI flags a flow as suspicious, the
// GFW connects to the suspected server itself and watches how it behaves.
//
// Decision rule modeled here: a server that answers garbage with *anything*
// (TLS alert, HTTP 400, RST banner...) is exonerated; a server that accepts
// the connection and then stays mute or closes silently — the signature of
// Shadowsocks servers and blinded-tunnel endpoints — is confirmed.
#pragma once

#include <functional>

#include "transport/host_stack.h"

namespace sc::gfw {

class ActiveProber {
 public:
  explicit ActiveProber(transport::HostStack& stack) : stack_(stack) {}

  using ProbeCallback = std::function<void(bool confirmed)>;
  void probe(net::Endpoint target, ProbeCallback cb);

  std::uint64_t probesSent() const noexcept { return probes_sent_; }
  std::uint64_t probesConfirmed() const noexcept { return probes_confirmed_; }

 private:
  transport::HostStack& stack_;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_confirmed_ = 0;
};

}  // namespace sc::gfw
