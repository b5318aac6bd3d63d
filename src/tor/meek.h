// meek: Tor's domain-fronting pluggable transport (the paper tested "the
// latest meek obfuscation protocol", §4.2).
//
// The client opens ordinary HTTPS to a big CDN's front door — the SNI says
// an innocuous CDN domain — but the Host header inside the encrypted tunnel
// names the bridge's reflector, so the CDN forwards the bytes onward. Cells
// ride in POST bodies; downstream data comes back in poll responses. The
// polling loop is also meek's performance tax: every circuit round trip
// costs at least one poll interval plus two CDN legs — the root cause of
// Tor's 13–20 s first-time PLT in Fig. 5a.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "http/client.h"
#include "http/server.h"
#include "http/tls.h"
#include "transport/host_stack.h"

namespace sc::tor {

// ----------------------------------------------------------------- CDN front
// A fronting CDN edge: terminates HTTPS under its own certificate, then
// routes each request by Host header to a registered origin over plain HTTP.
class FrontedCdn {
 public:
  FrontedCdn(transport::HostStack& stack, std::string front_domain);

  void addOrigin(const std::string& host_header, net::Endpoint origin);

  const std::string& frontDomain() const noexcept { return front_domain_; }
  std::uint64_t requestsFronted() const noexcept { return fronted_; }

 private:
  struct Origin {
    net::Endpoint endpoint;
    // Keep-alive connections to it (real CDN edges pool upstreams).
    std::vector<transport::Stream::Ptr> idle;
  };

  void forward(http::Request&& req, http::HttpServer::Respond respond);

  void withUpstream(Origin& origin,
                    std::function<void(transport::Stream::Ptr)> cb);

  transport::HostStack& stack_;
  std::string front_domain_;
  std::unique_ptr<http::HttpServer> server_;
  // By Host header; std::less<> finds a request's host without a copy.
  std::map<std::string, Origin, std::less<>> origins_;
  std::uint64_t fronted_ = 0;
};

// ------------------------------------------------------------- meek server
// Runs next to the bridge: turns the HTTP request/response stream back into
// a TLS cell link to the bridge's OR port.
class MeekServer {
 public:
  MeekServer(transport::HostStack& stack, net::Endpoint bridge_or_port,
             net::Port http_port = 8443);

  std::size_t activeSessions() const noexcept { return sessions_.size(); }

 private:
  struct Session {
    transport::Stream::Ptr link;  // TLS to the bridge OR port
    Bytes downstream;             // buffered bridge -> client bytes
    bool link_failed = false;
    // Long-poll state: at most one request parked per session.
    std::function<void()> pending_finish;
    sim::EventHandle hold_timer;
  };

  void onRequest(http::Request&& req, http::HttpServer::Respond respond);

  transport::HostStack& stack_;
  net::Endpoint bridge_;
  std::unique_ptr<http::HttpServer> server_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
};

// ------------------------------------------------------------- meek client
// A transport::Stream whose bytes travel as HTTPS POST bodies through the
// CDN front. Holds one persistent keep-alive HTTPS connection and polls.
struct MeekClientOptions {
  net::Endpoint cdn;                 // the CDN edge's address
  std::string front_domain;          // what the SNI claims
  std::string bridge_host_header;    // what the Host header asks for
  std::string tls_fingerprint = "meek/0.25 chrome";
};

class MeekClient final : public transport::Stream,
                         public std::enable_shared_from_this<MeekClient> {
 public:
  using Ptr = std::shared_ptr<MeekClient>;

  static Ptr open(transport::HostStack& stack, MeekClientOptions options,
                  std::uint32_t measure_tag = 0);

  void send(Bytes data) override;
  void close() override;
  bool connected() const override { return !closed_; }

  std::uint64_t pollsSent() const noexcept { return polls_; }

 private:
  MeekClient(transport::HostStack& stack, MeekClientOptions options,
             std::uint32_t tag);
  void start();
  void schedulePoll(sim::Time delay);
  void pollNow();
  void ensureConnection(std::function<void(transport::Stream::Ptr)> cb);

  transport::HostStack& stack_;
  MeekClientOptions options_;
  std::uint32_t tag_;
  std::string session_id_;
  http::TlsSessionCache tls_cache_;
  transport::Stream::Ptr conn_;
  Bytes out_buffer_;
  bool in_flight_ = false;
  bool closed_ = false;
  sim::EventHandle poll_timer_;
  std::uint64_t polls_ = 0;
};

}  // namespace sc::tor
