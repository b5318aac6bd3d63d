#include "vpn/pptp.h"

#include "obs/hub.h"

namespace sc::vpn {

namespace {
// Control message tags (stand-ins for the PPTP message types).
constexpr std::uint8_t kSccrq = 1;  // start control connection request
constexpr std::uint8_t kSccrp = 2;  // ... reply
constexpr std::uint8_t kOcrq = 3;   // outgoing call request
constexpr std::uint8_t kOcrp = 4;   // ... reply: call id + inner ip + dns

Bytes makeMsg(std::uint8_t tag) {
  Bytes b;
  appendU8(b, tag);
  return b;
}
}  // namespace

// -------------------------------------------------------------------- server

PptpServer::PptpServer(transport::HostStack& stack, PptpServerOptions options)
    : stack_(stack), options_(options), nat_(stack, 20000, 40000, 8e4, 22.0) {
  listener_ = stack_.tcpListen(kPptpControlPort,
                               [this](transport::TcpSocket::Ptr sock) {
                                 onControlStream(std::move(sock));
                               });
  stack_.setRawHandler(net::IpProto::kGre, [this](net::Packet&& pkt) {
    onGre(std::move(pkt));
  });
  nat_.setReturnPath([this](std::uint64_t session_id, net::Packet&& inner) {
    const auto it = sessions_.find(static_cast<std::uint32_t>(session_id));
    if (it == sessions_.end()) return;
    net::Packet outer =
        net::makeGre(stack_.node().primaryIp(), it->second.client_outer,
                     it->second.call_id, net::serializePacket(inner));
    outer.measure_tag = inner.measure_tag;
    stack_.node().send(std::move(outer));
  });
}

void PptpServer::onControlStream(transport::TcpSocket::Ptr sock) {
  pending_controls_.insert(sock);
  auto weak = std::weak_ptr(sock);
  sock->setOnData([this, weak](ByteView data) {
    auto sock = weak.lock();
    if (sock == nullptr || data.empty()) return;
    switch (data[0]) {
      case kSccrq:
        sock->send(makeMsg(kSccrp));
        break;
      case kOcrq: {
        const std::uint32_t call_id = next_call_id_++;
        const net::Ipv4 inner{options_.inner_base.v + next_inner_++};
        sessions_[call_id] =
            Session{call_id, sock->remote().ip, inner, sock};
        Bytes reply = makeMsg(kOcrp);
        appendU32(reply, call_id);
        appendU32(reply, inner.v);
        appendU32(reply, options_.advertised_dns.v);
        sock->send(std::move(reply));
        break;
      }
      default:
        break;
    }
  });
  sock->setOnClose([this, weak] {
    if (auto sock = weak.lock()) {
      std::erase_if(sessions_, [&](const auto& kv) {
        return kv.second.control == sock;
      });
      pending_controls_.erase(sock);
    }
  });
}

void PptpServer::onGre(net::Packet&& pkt) {
  const auto it = sessions_.find(pkt.gre().call_id);
  if (it == sessions_.end()) return;
  // The consuming parse only steals the buffer on success; on failure the
  // payload is still intact for the keepalive check below.
  auto inner = net::parsePacket(std::move(pkt.payload));
  if (!inner.has_value()) {
    // LCP echo keepalive: answer in kind.
    if (toString(pkt.payload) == "LCP-ECHO") {
      net::Packet reply =
          net::makeGre(stack_.node().primaryIp(), it->second.client_outer,
                       it->second.call_id, toBytes("LCP-ECHO-REPLY"));
      reply.measure_tag = pkt.measure_tag;
      stack_.node().send(std::move(reply));
    }
    return;
  }
  inner->measure_tag = pkt.measure_tag;
  ++forwarded_;
  nat_.forwardOutbound(std::move(*inner), it->first);
}

// -------------------------------------------------------------------- client

PptpClient::PptpClient(transport::HostStack& stack, net::Endpoint server,
                       std::uint32_t measure_tag)
    : stack_(stack), server_(server), tag_(measure_tag) {}

PptpClient::~PptpClient() { disconnect(); }

net::Ipv4 PptpClient::innerIp() const {
  return tun_ != nullptr ? tun_->innerIp() : net::Ipv4{};
}

std::uint64_t PptpClient::packetsTunneled() const {
  return tun_ != nullptr ? tun_->packetsCaptured() : 0;
}

void PptpClient::connect(ConnectCb cb) {
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "pptp",
                     server_.str());
  connect_cb_ = [this, span, cb = std::move(cb)](bool ok) {
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(span, ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError);
    cb(ok);
  };
  control_ = stack_.tcpConnect(
      server_,
      [this](transport::TcpSocket::Ptr sock) {
        if (sock == nullptr) {
          if (auto cb = std::move(connect_cb_)) cb(false);
          return;
        }
        sock->send(makeMsg(kSccrq));
      },
      tag_);
  control_->setOnData([this](ByteView data) {
    appendBytes(control_buffer_, data);
    if (control_buffer_.empty()) return;
    if (control_buffer_[0] == kSccrp) {
      control_buffer_.erase(control_buffer_.begin());
      control_->send(makeMsg(kOcrq));
      return;
    }
    if (control_buffer_[0] == kOcrp && control_buffer_.size() >= 13) {
      std::size_t off = 1;
      std::uint32_t call_id = 0, inner = 0, dns = 0;
      readU32(control_buffer_, off, call_id);
      readU32(control_buffer_, off, inner);
      readU32(control_buffer_, off, dns);
      control_buffer_.erase(control_buffer_.begin(),
                            control_buffer_.begin() + 13);
      call_id_ = call_id;
      advertised_dns_ = net::Ipv4(dns);

      stack_.setRawHandler(net::IpProto::kGre, [this](net::Packet&& pkt) {
        onGre(std::move(pkt));
      });
      const net::Endpoint server = server_;
      tun_ = std::make_unique<TunDevice>(
          stack_.node(), net::Ipv4(inner),
          [this](net::Packet&& pkt) { encapsulate(std::move(pkt)); },
          [server](const net::Packet& pkt) {
            // The tunnel's own traffic must not re-enter the tunnel.
            if (pkt.isGre()) return true;
            return pkt.dst == server.ip && pkt.isTcp() &&
                   pkt.tcp().dst_port == kPptpControlPort;
          });
      sendKeepalive();
      if (auto cb = std::move(connect_cb_)) cb(true);
    }
  });
  control_->setOnClose([this] {
    if (auto cb = std::move(connect_cb_)) cb(false);
    disconnect();
  });
}

void PptpClient::sendKeepalive() {
  if (tun_ == nullptr) return;
  net::Packet echo = net::makeGre(stack_.node().primaryIp(), server_.ip,
                                  call_id_, toBytes("LCP-ECHO"));
  echo.measure_tag = tag_;
  stack_.node().send(std::move(echo));
  keepalive_timer_ =
      stack_.sim().schedule(kLcpEchoInterval, [this] { sendKeepalive(); });
}

void PptpClient::disconnect() {
  keepalive_timer_.cancel();
  tun_.reset();
  if (control_ != nullptr) {
    control_->setOnData(nullptr);
    control_->setOnClose(nullptr);
    control_->close();
    control_ = nullptr;
  }
}

void PptpClient::encapsulate(net::Packet&& inner) {
  net::Packet outer =
      net::makeGre(stack_.node().primaryIp(), server_.ip, call_id_,
                   net::serializePacket(inner));
  outer.measure_tag = inner.measure_tag != 0 ? inner.measure_tag : tag_;
  stack_.node().send(std::move(outer));
}

void PptpClient::onGre(net::Packet&& pkt) {
  if (tun_ == nullptr || pkt.gre().call_id != call_id_) return;
  auto inner = net::parsePacket(std::move(pkt.payload));
  if (!inner.has_value()) return;
  inner->measure_tag = pkt.measure_tag;
  tun_->injectInbound(std::move(*inner));
}

}  // namespace sc::vpn
