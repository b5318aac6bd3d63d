// Per-host transport stack: TCP/UDP demux over a net::Node, ephemeral port
// allocation, raw-protocol hooks (GRE/ESP for VPN data planes), and the
// host CPU service queue used to model single-core servers (Fig. 7).
//
// Sockets belong to the streams and applications above them; the stack only
// indexes them (DESIGN §6, "Ownership"). A released socket leaves the index
// in its destructor, so late segments for it draw a RST, as for any closed
// port. The destructor detaches the handlers of sockets still open, which
// frees whatever they capture with the world.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/network.h"
#include "net/node.h"
#include "transport/tcp_socket.h"

namespace sc::transport {

// Single-core FIFO CPU: requests queue behind each other, which is what
// bends the Fig. 7 scalability curves once a proxy server saturates.
class CpuQueue {
 public:
  CpuQueue(sim::Simulator& sim, double speed_hz) : sim_(sim), speed_hz_(speed_hz) {}

  // Schedules `done` after `cycles` of CPU work, FIFO behind earlier work.
  void submit(double cycles, sim::EventFn done);

  double utilization(sim::Time window_start, sim::Time now) const;
  sim::Time busyUntil() const noexcept { return busy_until_; }

 private:
  sim::Simulator& sim_;
  double speed_hz_;
  sim::Time busy_until_ = 0;
  sim::Time busy_accum_ = 0;
};

class HostStack {
 public:
  explicit HostStack(net::Node& node, double cpu_hz = 2.3e9);
  ~HostStack();

  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  net::Node& node() noexcept { return node_; }
  sim::Simulator& sim() noexcept { return node_.network().sim(); }
  net::Ipv4 ip() const { return node_.effectiveSource(); }
  CpuQueue& cpu() noexcept { return cpu_; }

  // ---- TCP ----
  TcpSocket::Ptr tcpConnect(net::Endpoint remote,
                            TcpSocket::ConnectHandler cb,
                            std::uint32_t measure_tag = 0);
  TcpListener::Ptr tcpListen(net::Port port, TcpListener::AcceptHandler cb);
  void tcpUnlisten(net::Port port);

  // ---- UDP ----
  using UdpHandler = std::function<void(net::Endpoint from, ByteView data,
                                        std::uint32_t measure_tag)>;
  void udpBind(net::Port port, UdpHandler handler);
  void udpUnbind(net::Port port);
  void udpSend(net::Port local_port, net::Endpoint remote, Bytes data,
               std::uint32_t measure_tag = 0);

  // ---- raw IP protocols (VPN data planes) ----
  // Handlers own the packet: decapsulation mutates payloads in place
  // instead of copying them (the VPN data planes are per-packet hot paths).
  using RawHandler = std::function<void(net::Packet&&)>;
  void setRawHandler(net::IpProto proto, RawHandler handler);

  // ---- NAT port capture (VPN servers) ----
  // TCP/UDP packets whose destination port falls in [lo, hi) bypass the
  // socket demux and go to `handler` — how a VPN server's NAT claims its
  // translated port range without fighting the TCP stack. Multiple
  // non-overlapping ranges may coexist (e.g. PPTP and L2TP on one VM).
  void setPortCapture(net::Port lo, net::Port hi, RawHandler handler);
  void clearPortCapture(net::Port lo, net::Port hi);

  net::Port allocatePort();

  // Direct TCP connector for this host.
  Connector::Ptr directConnector(std::uint32_t measure_tag = 0);

  // Internal: packet egress/registration used by TcpSocket.
  void sendPacket(net::Packet pkt);
  void registerSocket(TcpSocket& sock);
  void unregisterSocket(const TcpSocket& sock);
  void forgetSocket(const TcpSocket& sock);  // from ~TcpSocket

 private:
  void onPacket(net::Packet&& pkt);
  void onTcpPacket(net::Packet&& pkt);

  struct ConnKey {
    net::Endpoint local;
    net::Endpoint remote;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      const std::size_t a = std::hash<net::Endpoint>{}(k.local);
      const std::size_t b = std::hash<net::Endpoint>{}(k.remote);
      return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
    }
  };

  net::Node& node_;
  CpuQueue cpu_;
  // Not owning: each socket's owner is the stream or application above it,
  // and ~TcpSocket removes its entry.
  std::unordered_map<ConnKey, TcpSocket*, ConnKeyHash> conns_;
  std::unordered_map<net::Port, TcpListener::Ptr> listeners_;
  std::unordered_map<net::Port, UdpHandler> udp_handlers_;
  std::unordered_map<net::IpProto, RawHandler> raw_handlers_;
  struct PortCapture {
    net::Port lo;
    net::Port hi;
    RawHandler handler;
  };
  std::vector<PortCapture> captures_;
  net::Port next_port_ = 49152;
};

}  // namespace sc::transport
