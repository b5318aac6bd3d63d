#include "transport/tcp_socket.h"

#include <algorithm>

#include "obs/hub.h"
#include "transport/host_stack.h"

namespace sc::transport {

namespace {
constexpr int kMaxSynRetries = 6;
}

void TcpSocket::noteRetransmit(const char* kind, std::uint32_t seq) {
  auto& sim = stack_.sim();
  if (obs::Registry* reg = obs::registryOf(sim)) {
    reg->counter("tcp.retransmissions")->inc();
    reg->counter(std::string("tcp.retransmit.") + kind)->inc();
  }
  if (obs::Tracer* tracer = obs::tracerOf(sim)) {
    obs::Event ev;
    ev.at = sim.now();
    ev.type = obs::EventType::kTcpRetransmit;
    ev.what = kind;
    ev.flow.src = local_.ip.v;
    ev.flow.dst = remote_.ip.v;
    ev.flow.src_port = local_.port;
    ev.flow.dst_port = remote_.port;
    ev.flow.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
    ev.tag = measure_tag_;
    ev.a = seq;
    tracer->record(std::move(ev));
  }
}

TcpSocket::TcpSocket(HostStack& stack, net::Endpoint local,
                     net::Endpoint remote, std::uint32_t measure_tag)
    : stack_(stack), local_(local), remote_(remote), measure_tag_(measure_tag) {}

TcpSocket::~TcpSocket() {
  rto_timer_.cancel();
  if (registered_) stack_.forgetSocket(*this);
}

void TcpSocket::connect(ConnectHandler cb) {
  on_connect_ = std::move(cb);
  connect_hold_ = shared_from_this();
  if (auto* sp = obs::spansOf(stack_.sim()))
    connect_span_ = sp->begin(obs::SpanKind::kTcpConnect, measure_tag_, "",
                              remote_.str());
  state_ = State::kSynSent;
  iss_ = static_cast<std::uint32_t>(stack_.sim().rng().nextU64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  stack_.registerSocket(*this);
  net::TcpFlags syn;
  syn.syn = true;
  sendSegment(syn, iss_, {});
  armRetransmitTimer();
}

void TcpSocket::acceptSyn(const net::Packet& syn) {
  state_ = State::kSynReceived;
  rcv_nxt_ = syn.tcp().seq + 1;
  peer_window_ = syn.tcp().window;
  iss_ = static_cast<std::uint32_t>(stack_.sim().rng().nextU64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  stack_.registerSocket(*this);
  net::TcpFlags synack;
  synack.syn = true;
  synack.ack = true;
  sendSegment(synack, iss_, {});
  armRetransmitTimer();
}

void TcpSocket::send(Bytes data) {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kSynSent && state_ != State::kSynReceived)
    return;
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  trySendData();
}

void TcpSocket::close() {
  if (state_ == State::kClosed || fin_queued_) return;
  fin_queued_ = true;
  trySendData();
}

void TcpSocket::abort() {
  if (state_ == State::kClosed) return;
  net::TcpFlags rst;
  rst.rst = true;
  sendSegment(rst, snd_nxt_, {});
  teardown(/*reset=*/false);  // local abort: no on-close storm
}

void TcpSocket::sendSegment(net::TcpFlags flags, std::uint32_t seq,
                            Bytes payload) {
  net::Packet pkt = net::makeTcp(local_.ip, remote_.ip, local_.port,
                                 remote_.port, flags, seq, rcv_nxt_,
                                 std::move(payload));
  pkt.tcp().window = 65535;
  pkt.measure_tag = measure_tag_;
  ++stats_.segments_sent;
  stack_.sendPacket(std::move(pkt));
}

void TcpSocket::sendAck() {
  net::TcpFlags ack;
  ack.ack = true;
  sendSegment(ack, snd_nxt_, {});
}

void TcpSocket::trySendData() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;

  const auto window =
      static_cast<std::size_t>(std::min<double>(cwnd_, peer_window_));
  std::size_t inflight_bytes = 0;
  for (const auto& seg : inflight_) inflight_bytes += std::max<std::size_t>(seg.data.size(), seg.fin ? 1 : 0);

  bool sent_any = false;
  while (!send_buffer_.empty() &&
         (inflight_bytes == 0 || inflight_bytes + kMss <= window)) {
    const std::size_t n = std::min(send_buffer_.size(), kMss);
    Bytes chunk(send_buffer_.begin(),
                send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    InFlight seg;
    seg.seq = snd_nxt_;
    seg.data = chunk;
    seg.sent_at = stack_.sim().now();
    seg.retransmitted = false;
    seg.fin = false;
    inflight_.push_back(seg);
    inflight_bytes += n;

    net::TcpFlags flags;
    flags.ack = true;
    flags.psh = send_buffer_.empty();
    sendSegment(flags, snd_nxt_, std::move(chunk));
    snd_nxt_ += static_cast<std::uint32_t>(n);
    stats_.bytes_sent += n;
    sent_any = true;
  }

  if (send_buffer_.empty() && fin_queued_ && !fin_sent_) {
    InFlight seg;
    seg.seq = snd_nxt_;
    seg.sent_at = stack_.sim().now();
    seg.retransmitted = false;
    seg.fin = true;
    inflight_.push_back(seg);
    net::TcpFlags flags;
    flags.fin = true;
    flags.ack = true;
    sendSegment(flags, snd_nxt_, {});
    snd_nxt_ += 1;
    fin_sent_ = true;
    state_ = state_ == State::kCloseWait ? State::kLastAck : State::kFinWait;
    sent_any = true;
  }

  if (sent_any && !rto_timer_.active()) armRetransmitTimer();
}

void TcpSocket::armRetransmitTimer() {
  rto_timer_.cancel();
  sim::Time rto = rto_;
  for (int i = 0; i < backoff_ && rto < kMaxRto; ++i) rto *= 2;
  rto = std::min(rto, kMaxRto);
  // The destructor cancels this timer, so the body never sees a dead socket.
  rto_timer_ = stack_.sim().schedule(rto, [this] {
    const Ptr keep = shared_from_this();  // callbacks may drop the owner
    onRetransmitTimeout();
  });
}

void TcpSocket::onRetransmitTimeout() {
  ++stats_.rtos;
  if (obs::Registry* reg = obs::registryOf(stack_.sim()))
    reg->counter("tcp.rto_fires")->inc();
  ++backoff_;

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (++syn_retries_ > kMaxSynRetries) {
      if (auto* sp = obs::spansOf(stack_.sim()))
        sp->end(connect_span_, obs::SpanStatus::kError, syn_retries_);
      resolveConnect(false);
      teardown(/*reset=*/false);
      return;
    }
    net::TcpFlags flags;
    flags.syn = true;
    flags.ack = state_ == State::kSynReceived;
    ++stats_.retransmissions;
    noteRetransmit("syn", iss_);
    sendSegment(flags, iss_, {});
    armRetransmitTimer();
    return;
  }

  if (inflight_.empty()) return;

  // Classic Tahoe-style response: shrink to one segment, retransmit head.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
  cwnd_ = kMss;
  dup_acks_ = 0;

  InFlight& head = inflight_.front();
  head.retransmitted = true;
  head.sent_at = stack_.sim().now();
  ++stats_.retransmissions;
  noteRetransmit("rto", head.seq);
  net::TcpFlags flags;
  flags.ack = true;
  flags.fin = head.fin;
  flags.psh = !head.fin;
  sendSegment(flags, head.seq, head.data);
  armRetransmitTimer();
}

void TcpSocket::updateRttEstimate(sim::Time sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::Time err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp<sim::Time>(srtt_ + std::max<sim::Time>(4 * rttvar_,
                                                           10 * sim::kMillisecond),
                               kMinRto, kMaxRto);
}

void TcpSocket::enterEstablished() {
  state_ = State::kEstablished;
  if (connect_span_ != 0) {
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(connect_span_, obs::SpanStatus::kOk, syn_retries_);
  }
  resolveConnect(true);
}

void TcpSocket::resolveConnect(bool ok) {
  const Ptr hold = std::move(connect_hold_);
  if (auto cb = std::move(on_connect_)) cb(ok ? hold : nullptr);
}

void TcpSocket::handleAck(const net::Packet& pkt) {
  const std::uint32_t ack = pkt.tcp().ack;
  peer_window_ = pkt.tcp().window;

  if (seqLt(snd_una_, ack) && seqLe(ack, snd_nxt_)) {
    snd_una_ = ack;
    backoff_ = 0;
    dup_acks_ = 0;
    while (!inflight_.empty()) {
      const InFlight& head = inflight_.front();
      const std::uint32_t seg_end =
          head.seq + static_cast<std::uint32_t>(head.data.size()) +
          (head.fin ? 1 : 0);
      if (!seqLe(seg_end, ack)) break;
      if (!head.retransmitted)
        updateRttEstimate(stack_.sim().now() - head.sent_at);
      // Congestion window growth per acked segment.
      if (cwnd_ < ssthresh_)
        cwnd_ += kMss;  // slow start
      else
        cwnd_ += static_cast<double>(kMss) * kMss / cwnd_;  // AIMD
      inflight_.pop_front();
    }
    if (inflight_.empty()) {
      rto_timer_.cancel();
    } else {
      armRetransmitTimer();
    }
    trySendData();

    if (fin_sent_ && seqLe(snd_nxt_, ack)) {
      if (state_ == State::kLastAck) {
        teardown(/*reset=*/false);
        return;
      }
      if (state_ == State::kFinWait && peer_fin_seen_) {
        teardown(/*reset=*/false);
        return;
      }
    }
  } else if (ack == snd_una_ && !inflight_.empty() &&
             pkt.payload.empty() && !pkt.tcp().flags.fin) {
    if (++dup_acks_ == 3) {
      // Fast retransmit.
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
      cwnd_ = ssthresh_;
      InFlight& head = inflight_.front();
      head.retransmitted = true;
      head.sent_at = stack_.sim().now();
      ++stats_.retransmissions;
      ++stats_.fast_retransmits;
      noteRetransmit("fast", head.seq);
      net::TcpFlags flags;
      flags.ack = true;
      flags.fin = head.fin;
      flags.psh = !head.fin;
      sendSegment(flags, head.seq, head.data);
      armRetransmitTimer();
    }
  }
}

void TcpSocket::handleData(const net::Packet& pkt) {
  const std::uint32_t seq = pkt.tcp().seq;
  const auto& payload = pkt.payload;
  const bool fin = pkt.tcp().flags.fin;
  if (payload.empty() && !fin) return;

  if (seq == rcv_nxt_) {
    if (!payload.empty()) {
      rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
      stats_.bytes_received += payload.size();
      emitData(payload);
      if (state_ == State::kClosed) return;  // handler closed us
    }
    // Drain any contiguous out-of-order segments.
    auto it = out_of_order_.find(rcv_nxt_);
    while (it != out_of_order_.end()) {
      rcv_nxt_ += static_cast<std::uint32_t>(it->second.size());
      stats_.bytes_received += it->second.size();
      const Bytes buffered = std::move(it->second);
      out_of_order_.erase(it);
      emitData(buffered);
      if (state_ == State::kClosed) return;
      it = out_of_order_.find(rcv_nxt_);
    }
    if (fin) {
      rcv_nxt_ += 1;
      peer_fin_seen_ = true;
    }
    sendAck();
    if (fin) {
      if (state_ == State::kEstablished) {
        state_ = State::kCloseWait;
        emitClose();
      } else if (state_ == State::kFinWait && fin_sent_ &&
                 seqLe(snd_nxt_, snd_una_)) {
        teardown(/*reset=*/false);
      } else if (state_ == State::kFinWait) {
        peer_fin_seen_ = true;  // wait for our FIN's ack
      }
    }
  } else if (seqLt(seq, rcv_nxt_)) {
    sendAck();  // duplicate; re-ack
  } else {
    if (!payload.empty()) out_of_order_[seq] = payload;
    sendAck();  // dup-ack signals the gap
  }
}

void TcpSocket::onPacket(const net::Packet& pkt) {
  auto self = shared_from_this();  // keep alive through callbacks
  const auto& t = pkt.tcp();

  if (t.flags.rst) {
    const bool was_connecting = state_ == State::kSynSent;
    if (was_connecting) {
      if (auto* sp = obs::spansOf(stack_.sim()))
        sp->end(connect_span_, obs::SpanStatus::kError, -1);
      resolveConnect(false);
    }
    teardown(/*reset=*/true);
    return;
  }

  switch (state_) {
    case State::kSynSent:
      if (t.flags.syn && t.flags.ack && t.ack == snd_nxt_) {
        rcv_nxt_ = t.seq + 1;
        snd_una_ = t.ack;
        peer_window_ = t.window;
        rto_timer_.cancel();
        sendAck();
        enterEstablished();
        trySendData();
      }
      return;
    case State::kSynReceived:
      if (t.flags.ack && t.ack == snd_nxt_) {
        snd_una_ = t.ack;
        rto_timer_.cancel();
        enterEstablished();
        // The ACK may carry data (e.g. TCP fast open-ish app behaviour).
        handleData(pkt);
        trySendData();
      }
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (t.flags.ack) handleAck(pkt);
  if (state_ == State::kClosed) return;
  handleData(pkt);
}

void TcpSocket::teardown(bool reset) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  rto_timer_.cancel();
  inflight_.clear();
  send_buffer_.clear();
  if (registered_) stack_.unregisterSocket(*this);
  registered_ = false;
  if (reset) emitClose();
  // Closed for good: nothing more can arrive, so let go of the owners the
  // handlers captured (the usual way a connection's objects are freed).
  releaseHandlers();
  on_connect_ = nullptr;
  connect_hold_ = nullptr;
}

void TcpSocket::detach() {
  registered_ = false;  // the stack is going away: leave its index alone
  teardown(/*reset=*/false);
}

}  // namespace sc::transport
