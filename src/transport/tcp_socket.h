// TCP: reliable byte streams over the simulated network.
//
// Implements what matters for the paper's metrics: the 3-way handshake (so
// every extra connection costs an RTT — the root cause of Shadowsocks' long
// PLT per §4.3), MSS segmentation, cumulative ACKs with out-of-order
// reassembly, RTT estimation (RFC 6298), retransmission timeouts with
// exponential backoff, fast retransmit on 3 duplicate ACKs, a slow-start /
// AIMD congestion window, FIN teardown, and RST handling (the GFW's
// connection-reset weapon; also what servers send to probes hitting closed
// ports — the signal active probing exploits).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "net/packet.h"
#include "sim/simulator.h"
#include "transport/stream.h"

namespace sc::transport {

class HostStack;

// Wrap-safe 32-bit sequence arithmetic.
inline bool seqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

class TcpSocket final : public Stream,
                        public std::enable_shared_from_this<TcpSocket> {
 public:
  using Ptr = std::shared_ptr<TcpSocket>;
  // Receives the socket once established, nullptr when the connect failed.
  using ConnectHandler = std::function<void(Ptr)>;

  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,
    kCloseWait,
    kLastAck,
  };

  // Use HostStack::tcpConnect / tcpListen instead of constructing directly.
  TcpSocket(HostStack& stack, net::Endpoint local, net::Endpoint remote,
            std::uint32_t measure_tag);
  ~TcpSocket() override;

  void connect(ConnectHandler cb);

  // Stream interface.
  void send(Bytes data) override;
  void close() override;  // graceful FIN
  bool connected() const override { return state_ == State::kEstablished; }

  void abort();  // RST to peer, immediate teardown

  net::Endpoint local() const noexcept { return local_; }
  net::Endpoint remote() const noexcept { return remote_; }
  State state() const noexcept { return state_; }
  std::uint32_t measureTag() const noexcept { return measure_tag_; }

  // Smoothed RTT estimate in microseconds (0 until first sample).
  sim::Time srtt() const noexcept { return srtt_; }

  struct Stats {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rtos = 0;
    std::uint64_t fast_retransmits = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  // Called by HostStack's demux.
  void onPacket(const net::Packet& pkt);
  // Called by ~HostStack on a socket still open: forget the stack, stop the
  // timer and drop the handlers and the connect hold, sending nothing.
  void detach();
  // Called by listener-side accept path.
  void acceptSyn(const net::Packet& syn);

 private:
  static constexpr std::size_t kMss = 1400;
  static constexpr std::uint32_t kInitialCwndSegments = 10;
  static constexpr sim::Time kMinRto = 200 * sim::kMillisecond;
  static constexpr sim::Time kMaxRto = 60 * sim::kSecond;
  static constexpr sim::Time kInitialRto = sim::kSecond;

  // Retransmissions are rare, so these resolve the obs handles per event
  // (a map lookup) instead of paying per-socket resolution at connect time.
  void noteRetransmit(const char* kind, std::uint32_t seq);

  void sendSegment(net::TcpFlags flags, std::uint32_t seq, Bytes payload);
  void sendAck();
  void trySendData();
  void armRetransmitTimer();
  void onRetransmitTimeout();
  void updateRttEstimate(sim::Time sample);
  void handleAck(const net::Packet& pkt);
  void handleData(const net::Packet& pkt);
  void enterEstablished();
  void resolveConnect(bool ok);
  void teardown(bool reset);

  HostStack& stack_;
  net::Endpoint local_;
  net::Endpoint remote_;
  std::uint32_t measure_tag_;
  State state_ = State::kClosed;
  ConnectHandler on_connect_;
  // Held from connect() until the connect callback runs: nothing else need
  // own a socket that is still dialling.
  Ptr connect_hold_;

  // Send side.
  std::deque<std::uint8_t> send_buffer_;  // unsent application bytes
  struct InFlight {
    std::uint32_t seq = 0;
    Bytes data;
    sim::Time sent_at = 0;
    bool retransmitted = false;
    bool fin = false;
  };
  std::deque<InFlight> inflight_;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t iss_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;

  // Congestion control.
  double cwnd_ = kInitialCwndSegments * kMss;
  double ssthresh_ = 1 << 20;
  std::uint32_t dup_acks_ = 0;
  std::uint16_t peer_window_ = 65535;

  // Receive side.
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, Bytes> out_of_order_;
  bool peer_fin_seen_ = false;

  // Timers / RTT.
  sim::EventHandle rto_timer_;
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  sim::Time rto_ = kInitialRto;
  int backoff_ = 0;
  int syn_retries_ = 0;

  Stats stats_;
  bool registered_ = false;
  std::uint64_t connect_span_ = 0;  // obs::SpanId; client connect() only

  friend class HostStack;
};

class TcpListener {
 public:
  using Ptr = std::shared_ptr<TcpListener>;
  using AcceptHandler = std::function<void(TcpSocket::Ptr)>;

  explicit TcpListener(net::Port port) : port_(port) {}
  void setOnAccept(AcceptHandler h) { on_accept_ = std::move(h); }
  net::Port port() const noexcept { return port_; }

 private:
  friend class HostStack;
  net::Port port_;
  AcceptHandler on_accept_;
};

}  // namespace sc::transport
