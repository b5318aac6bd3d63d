// The domestic-side half of the serverless method: one fronted dispatcher
// multiplexing client requests across whatever function endpoints are alive
// right now.
//
// Wire shape per endpoint, from the GFW's point of view: a direct TCP dial
// to the endpoint's IP carrying a TLS ClientHello whose SNI is the *front
// domain* (a high-reputation CDN name) with a stock browser fingerprint.
// The compiled DPI scanner classifies that as ordinary kTls — the endpoint
// hostname never appears on the wire, which is domain fronting's whole
// trick. What the GFW *can* do is ban individual endpoint IPs; the
// dispatcher's job is to make that loss survivable: failed dials and
// missed pings count toward a ban verdict, a banned endpoint is retired
// through the FunctionProvider (which respawns on a fresh IP), and picks
// fail over to the remaining live tunnels meanwhile. A TTL reap is routine
// churn instead: the reaped endpoint takes no new picks, and its tunnel
// closes when its last stream ends or at core::kProxiedRequestTimeout,
// whichever comes first.
//
// Implements core::TunnelProvider, so a DomesticProxy delegates every
// stream open here with zero new plumbing (same seam fleet::Fleet uses).
// responseCache() stays null deliberately: endpoints are ephemeral, and a
// shared domestic cache is the fleet's trade, not this method's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/fleet_api.h"
#include "core/tunnel.h"
#include "serverless/cost.h"
#include "serverless/provider.h"
#include "transport/host_stack.h"

namespace sc::serverless {

struct DispatcherOptions {
  std::string front_domain = "fn.cloud-front.example";
  std::string tls_fingerprint = "chrome-56";
  Bytes tunnel_secret;
  crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
};

class FrontedDispatcher final : public core::TunnelProvider {
 public:
  // `stack` is the domestic gateway's host stack (fronted dials originate
  // there); `cost` may be null; `tag` labels tunnel packets and traces.
  FrontedDispatcher(transport::HostStack& stack, DispatcherOptions options,
                    FunctionProvider& provider, CostModel* cost = nullptr,
                    std::uint32_t tag = 0);
  ~FrontedDispatcher() override;

  FrontedDispatcher(const FrontedDispatcher&) = delete;
  FrontedDispatcher& operator=(const FrontedDispatcher&) = delete;

  // ---- core::TunnelProvider ----
  void withStream(net::Ipv4 client, const transport::ConnectTarget& target,
                  bool passthrough, StreamHandler fn) override;
  void rotateBlinding(std::uint32_t new_epoch) override;

  // Wire to gfw.ips().setOnChange(...) (the embedding world does this so
  // sc_serverless never links sc_gfw): probes every tunnel immediately,
  // collapsing ban-detection latency from the 2 s probe interval to one
  // RTT.
  void onBlocklistChurn();

  // ---- introspection ----
  int connectedCount() const;
  std::uint64_t dispatchFailures() const noexcept { return failures_; }
  std::uint64_t starvations() const noexcept { return starvations_; }
  const std::string& frontDomain() const noexcept {
    return options_.front_domain;
  }

 private:
  struct Conn {
    core::Tunnel::Ptr tunnel;
    bool dialing = false;
    bool draining = false;  // reaped: no probes, closes once idle
    int failures = 0;       // consecutive; reset by a pong
  };

  void dial(int id);
  void drain(int id);  // reaped: let open streams finish, then drop
  void drop(int id);   // sever the tunnel, forget the conn
  void noteFailure(int id);
  void probeLoop();
  void probeConn(int id);
  void tryPick(transport::ConnectTarget target, bool passthrough,
               StreamHandler fn, int retries_left);
  void trace(const char* what, const std::string& detail, std::int64_t a);

  transport::HostStack& stack_;
  DispatcherOptions options_;
  FunctionProvider& provider_;
  CostModel* cost_;
  std::uint32_t tag_;
  std::map<int, Conn> conns_;
  std::size_t next_pick_ = 0;  // round-robin cursor over ready endpoints
  std::uint64_t failures_ = 0;
  std::uint64_t starvations_ = 0;
  // Guards every self-rescheduled event (probe loop, redials, pick
  // retries): cleared in the destructor so late sim events become no-ops
  // instead of touching a dead dispatcher.
  std::shared_ptr<bool> alive_;
};

}  // namespace sc::serverless
