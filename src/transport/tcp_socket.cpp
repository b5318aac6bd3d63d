#include "transport/tcp_socket.h"

#include <algorithm>
#include <cstring>

#include "obs/hub.h"
#include "transport/host_stack.h"

namespace sc::transport {

namespace {
constexpr int kMaxSynRetries = 6;

// Drops a flat queue's consumed prefix [0, head) once the queue is empty or
// the prefix is its larger part, so each element moves at most once per
// halving.
template <typename V>
void trimConsumed(V& queue, std::size_t& head) {
  if (head == queue.size()) {
    queue.clear();
    head = 0;
  } else if (2 * head >= queue.size()) {
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}
}  // namespace

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
  if (!data.empty()) {
    unsent_ += data.size();
    chunks_.push_back(std::move(data));  // kept whole, never copied
  }
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

Bytes TcpSocket::copyOut(std::size_t chunk, std::size_t off,
                         std::size_t n) const {
  Bytes out(n);
  for (std::size_t done = 0; done < n; ++chunk, off = 0) {
    const Bytes& from = chunks_[chunk];
    const std::size_t k = std::min(n - done, from.size() - off);
    std::memcpy(out.data() + done, from.data() + off, k);
    done += k;
  }
  return out;
}

void TcpSocket::advance(std::size_t& chunk, std::size_t& off,
                        std::size_t n) const {
  off += n;
  while (chunk < chunks_.size() && off >= chunks_[chunk].size()) {
    off -= chunks_[chunk].size();
    ++chunk;
  }
}

void TcpSocket::releaseAcked(std::size_t n) {
  acked_off_ += n;
  while (chunk_head_ < chunks_.size() &&
         acked_off_ >= chunks_[chunk_head_].size()) {
    acked_off_ -= chunks_[chunk_head_].size();
    chunks_[chunk_head_++] = Bytes();  // every byte acked: free it now
  }
  // Like trimConsumed, keeping the send position's index in step.
  if (chunk_head_ == chunks_.size()) {
    chunks_.clear();
    send_chunk_ = 0;
    chunk_head_ = 0;
  } else if (2 * chunk_head_ >= chunks_.size()) {
    chunks_.erase(chunks_.begin(),
                  chunks_.begin() + static_cast<std::ptrdiff_t>(chunk_head_));
    send_chunk_ -= chunk_head_;
    chunk_head_ = 0;
  }
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

  bool sent_any = false;
  while (unsent() > 0 &&
         (inflight_bytes_ == 0 || inflight_bytes_ + kMss <= window)) {
    const std::size_t n = std::min(unsent(), kMss);
    Bytes payload = copyOut(send_chunk_, send_off_, n);
    advance(send_chunk_, send_off_, n);
    unsent_ -= n;
    InFlight& seg = inflight_.emplace_back();
    seg.seq = snd_nxt_;
    seg.len = n;
    seg.sent_at = stack_.sim().now();
    inflight_bytes_ += n;

    net::TcpFlags flags;
    flags.ack = true;
    flags.psh = unsent() == 0;
    sendSegment(flags, snd_nxt_, std::move(payload));
    snd_nxt_ += static_cast<std::uint32_t>(n);
    stats_.bytes_sent += n;
    sent_any = true;
  }

  if (unsent() == 0 && fin_queued_ && !fin_sent_) {
    InFlight& seg = inflight_.emplace_back();
    seg.seq = snd_nxt_;
    seg.sent_at = stack_.sim().now();
    seg.fin = true;
    inflight_bytes_ += seg.span();
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

  if (inflightEmpty()) return;

  // Classic Tahoe-style response: shrink to one segment, retransmit head.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
  cwnd_ = kMss;
  dup_acks_ = 0;
  retransmitHead("rto");
}

void TcpSocket::retransmitHead(const char* kind) {
  InFlight& head = inflightHead();
  head.retransmitted = true;
  head.sent_at = stack_.sim().now();
  ++stats_.retransmissions;
  noteRetransmit(kind, head.seq);
  net::TcpFlags flags;
  flags.ack = true;
  flags.fin = head.fin;
  flags.psh = !head.fin;
  sendSegment(flags, head.seq, copyOut(chunk_head_, acked_off_, head.len));
  armRetransmitTimer();
}

void TcpSocket::popInflight() {
  const InFlight& head = inflightHead();
  inflight_bytes_ -= head.span();
  const std::size_t len = head.len;
  ++inflight_head_;
  trimConsumed(inflight_, inflight_head_);
  releaseAcked(len);
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
    while (!inflightEmpty()) {
      const InFlight& head = inflightHead();
      const std::uint32_t seg_end =
          head.seq + static_cast<std::uint32_t>(head.len) + (head.fin ? 1 : 0);
      if (!seqLe(seg_end, ack)) break;
      if (!head.retransmitted)
        updateRttEstimate(stack_.sim().now() - head.sent_at);
      // Congestion window growth per acked segment.
      if (cwnd_ < ssthresh_)
        cwnd_ += kMss;  // slow start
      else
        cwnd_ += static_cast<double>(kMss) * kMss / cwnd_;  // AIMD
      popInflight();
    }
    if (inflightEmpty()) {
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
  } else if (ack == snd_una_ && !inflightEmpty() &&
             pkt.payload.empty() && !pkt.tcp().flags.fin) {
    if (++dup_acks_ == 3) {
      // Fast retransmit.
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
      cwnd_ = ssthresh_;
      ++stats_.fast_retransmits;
      retransmitHead("fast");
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
  inflight_head_ = 0;
  inflight_bytes_ = 0;
  chunks_.clear();
  chunk_head_ = 0;
  acked_off_ = 0;
  send_chunk_ = 0;
  send_off_ = 0;
  unsent_ = 0;
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
