// HTTP/1.1 server with keep-alive, prefix routing, optional TLS termination,
// and per-request CPU cost charged to the host's single-core CpuQueue.
//
// The CPU charge is what makes Fig. 7 reproducible: when many concurrent
// clients hit one Aliyun-class VM, requests queue behind each other and PLT
// grows with client count; Shadowsocks' extra per-session authentication
// work makes its curve knee first.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "http/message.h"
#include "http/tls.h"
#include "transport/host_stack.h"

namespace sc::http {

struct ServerOptions {
  net::Port port = 80;
  bool tls = false;
  std::string cert_name;
  double cycles_per_request = 4e6;    // ~1.7 ms on the 2.3 GHz testbed VM
  double cycles_per_body_byte = 40;   // response assembly / copy cost
};

class HttpServer {
 public:
  using Respond = std::function<void(Response)>;
  // The request is the handler's to move from (a proxy forwards it on).
  using Handler = std::function<void(Request&&, Respond)>;

  HttpServer(transport::HostStack& stack, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Longest matching prefix wins.
  void route(std::string path_prefix, Handler handler);
  void setDefaultHandler(Handler handler) { default_ = std::move(handler); }

  // CONNECT support (proxies): the session stops HTTP parsing and hands the
  // raw stream to the handler, which owns it from then on (it must send the
  // "200 Connection Established" line itself via `respond`).
  using ConnectHandler = std::function<void(
      const Request&, transport::Stream::Ptr client, Respond respond)>;
  void setConnectHandler(ConnectHandler handler) {
    connect_ = std::move(handler);
  }

  std::uint64_t requestsServed() const noexcept { return requests_; }
  std::size_t activeSessions() const noexcept { return sessions_.size(); }
  net::Port port() const noexcept { return options_.port; }
  transport::HostStack& stack() noexcept { return stack_; }

  // Header stamped onto every request with the L4 peer address, so proxy
  // handlers can identify clients (the way real proxies log users).
  static constexpr const char* kPeerHeader = "x-peer-addr";

 private:
  struct Session;

  void onStream(transport::Stream::Ptr stream, net::Ipv4 peer);
  void dispatch(Request&& req, Respond respond);

  transport::HostStack& stack_;
  ServerOptions options_;
  transport::TcpListener::Ptr listener_;
  std::unique_ptr<TlsAcceptor> acceptor_;
  struct RouteEntry {
    std::string prefix;
    Handler handler;
  };
  std::vector<RouteEntry> routes_;
  Handler default_;
  ConnectHandler connect_;
  std::uint64_t requests_ = 0;
  std::unordered_set<std::shared_ptr<Session>> sessions_;
};

}  // namespace sc::http
