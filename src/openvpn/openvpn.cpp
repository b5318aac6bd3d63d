#include "openvpn/openvpn.h"

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "obs/hub.h"

namespace sc::openvpn {

namespace {
Bytes dataIv(std::uint32_t session, std::uint32_t seq) {
  Bytes iv(16, 0);
  for (int i = 0; i < 4; ++i) {
    iv[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(session >> (8 * i));
    iv[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return iv;
}

Bytes sessionKeyFrom(ByteView ta_key, ByteView nonce_c, ByteView nonce_s) {
  Bytes salt(nonce_c.begin(), nonce_c.end());
  appendBytes(salt, nonce_s);
  return crypto::deriveKey(ta_key, toString(salt), 32);
}
}  // namespace

// -------------------------------------------------------------------- server

OpenVpnServer::OpenVpnServer(transport::HostStack& stack,
                             CertificateAuthority& ca,
                             OpenVpnServerOptions options)
    : stack_(stack),
      ca_(ca),
      options_(std::move(options)),
      nat_(stack, 20000, 40000, 4.5e4, 12.0) {
  stack_.udpBind(kOpenVpnPort,
                 [this](net::Endpoint from, ByteView data, std::uint32_t tag) {
                   onDatagram(from, data, tag);
                 });
  nat_.setReturnPath([this](std::uint64_t session_id, net::Packet&& inner) {
    const auto it = sessions_.find(static_cast<std::uint32_t>(session_id));
    if (it == sessions_.end()) return;
    Session& s = it->second;
    Bytes out;
    appendU8(out, kOpData);
    appendU32(out, s.id);
    const std::uint32_t seq = ++s.tx_seq;
    appendU32(out, seq);
    appendBytes(out, crypto::aes256CfbEncrypt(s.cipher, dataIv(s.id, seq),
                                              net::serializePacket(inner)));
    net::Packet pkt = net::makeUdp(stack_.node().primaryIp(), s.client.ip,
                                   kOpenVpnPort, s.client.port, std::move(out));
    pkt.measure_tag = inner.measure_tag;
    stack_.node().send(std::move(pkt));
  });
}

void OpenVpnServer::onDatagram(net::Endpoint from, ByteView data,
                               std::uint32_t tag) {
  std::size_t off = 0;
  std::uint8_t op = 0;
  if (!readU8(data, off, op)) return;

  switch (op) {
    case kOpHardResetClient: {
      const std::uint32_t session = next_session_++;
      Bytes reply;
      appendU8(reply, kOpHardResetServer);
      appendU32(reply, session);
      stack_.udpSend(kOpenVpnPort, from, std::move(reply), tag);
      break;
    }
    case kOpControl: {
      std::uint32_t session = 0;
      std::uint16_t pem_len = 0;
      Bytes pem_raw, nonce;
      if (!readU32(data, off, session) || !readU16(data, off, pem_len) ||
          !readBytes(data, off, pem_len, pem_raw) ||
          !readBytes(data, off, 16, nonce))
        return;
      const auto cert = Certificate::fromPem(toString(pem_raw));
      if (!cert.has_value() || !ca_.verify(*cert)) {
        ++auth_failures_;
        return;  // silently ignore, like tls-auth drops unauthenticated pkts
      }
      const Bytes nonce_s = stack_.sim().rng().randomBytes(16);
      const net::Ipv4 inner{options_.inner_base.v + next_inner_++};
      sessions_.insert_or_assign(
          session,
          Session{session, from, inner,
                  crypto::Aes256(
                      sessionKeyFrom(options_.tls_auth_key, nonce, nonce_s))});

      Bytes reply;
      appendU8(reply, kOpControl);
      appendU32(reply, session);
      appendBytes(reply, nonce_s);
      appendU32(reply, inner.v);
      appendU32(reply, options_.advertised_dns.v);
      stack_.udpSend(kOpenVpnPort, from, std::move(reply), tag);
      break;
    }
    case kOpData: {
      std::uint32_t session = 0, seq = 0;
      if (!readU32(data, off, session) || !readU32(data, off, seq)) return;
      const auto it = sessions_.find(session);
      if (it == sessions_.end()) return;
      Bytes ct;
      if (!readBytes(data, off, data.size() - off, ct)) return;
      auto inner = net::parsePacket(
          crypto::aes256CfbDecrypt(it->second.cipher, dataIv(session, seq), ct));
      if (!inner.has_value()) return;
      inner->measure_tag = tag;
      ++forwarded_;
      nat_.forwardOutbound(std::move(*inner), session);
      break;
    }
    default:
      break;
  }
}

// -------------------------------------------------------------------- client

std::string OpenVpnClientConfig::validate() const {
  if (remote.ip.isZero()) return "remote: no server address configured";
  if (!ca_certificate.valid()) return "ca: missing CA certificate";
  if (!client_certificate.valid()) return "cert: missing client certificate";
  if (client_key.empty()) return "key: missing client private key";
  if (tls_auth_key.empty()) return "tls-auth: missing shared ta.key";
  return "";
}

OpenVpnClient::OpenVpnClient(transport::HostStack& stack,
                             OpenVpnClientConfig config,
                             std::uint32_t measure_tag)
    : stack_(stack), config_(std::move(config)), tag_(measure_tag) {}

OpenVpnClient::~OpenVpnClient() { disconnect(); }

net::Ipv4 OpenVpnClient::innerIp() const {
  return tun_ != nullptr ? tun_->innerIp() : net::Ipv4{};
}

void OpenVpnClient::finish(bool ok, const std::string& error) {
  timeout_.cancel();
  if (auto cb = std::move(connect_cb_)) cb(ok, error);
}

void OpenVpnClient::connect(ConnectCb cb) {
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "openvpn",
                     config_.remote.str());
  connect_cb_ = [this, span, cb = std::move(cb)](bool ok, std::string error) {
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(span, ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError);
    cb(ok, std::move(error));
  };
  const std::string config_error = config_.validate();
  if (!config_error.empty()) {
    finish(false, config_error);
    return;
  }

  local_port_ = stack_.allocatePort();
  stack_.udpBind(local_port_, [this](net::Endpoint, ByteView data,
                                     std::uint32_t) { onDatagram(data); });

  Bytes reset;
  appendU8(reset, kOpHardResetClient);
  stack_.udpSend(local_port_, config_.remote, std::move(reset), tag_);
  timeout_ = stack_.sim().schedule(15 * sim::kSecond, [this] {
    finish(false, "handshake timeout");
  });
}

void OpenVpnClient::onDatagram(ByteView data) {
  std::size_t off = 0;
  std::uint8_t op = 0;
  if (!readU8(data, off, op)) return;

  switch (op) {
    case kOpHardResetServer: {
      if (session_ != 0) return;
      if (!readU32(data, off, session_)) return;
      nonce_ = stack_.sim().rng().randomBytes(16);
      const std::string pem = config_.client_certificate.pem();
      Bytes control;
      appendU8(control, kOpControl);
      appendU32(control, session_);
      appendU16(control, static_cast<std::uint16_t>(pem.size()));
      appendBytes(control, toBytes(pem));
      appendBytes(control, nonce_);
      stack_.udpSend(local_port_, config_.remote, std::move(control), tag_);
      break;
    }
    case kOpControl: {
      std::uint32_t session = 0, inner = 0, dns = 0;
      Bytes nonce_s;
      if (!readU32(data, off, session) || session != session_ ||
          !readBytes(data, off, 16, nonce_s) || !readU32(data, off, inner) ||
          !readU32(data, off, dns))
        return;
      cipher_.emplace(sessionKeyFrom(config_.tls_auth_key, nonce_, nonce_s));
      advertised_dns_ = net::Ipv4(dns);

      const net::Endpoint server = config_.remote;
      const net::Port lport = local_port_;
      tun_ = std::make_unique<vpn::TunDevice>(
          stack_.node(), net::Ipv4(inner),
          [this](net::Packet&& pkt) { encapsulate(std::move(pkt)); },
          [server, lport](const net::Packet& pkt) {
            return pkt.isUdp() && pkt.dst == server.ip &&
                   pkt.udp().dst_port == kOpenVpnPort &&
                   pkt.udp().src_port == lport;
          });
      sendKeepalive();
      finish(true, "");
      break;
    }
    case kOpData: {
      if (tun_ == nullptr) return;
      std::uint32_t session = 0, seq = 0;
      if (!readU32(data, off, session) || session != session_ ||
          !readU32(data, off, seq))
        return;
      Bytes ct;
      if (!readBytes(data, off, data.size() - off, ct)) return;
      auto inner = net::parsePacket(
          crypto::aes256CfbDecrypt(*cipher_, dataIv(session, seq), ct));
      if (!inner.has_value()) return;
      tun_->injectInbound(std::move(*inner));
      break;
    }
    default:
      break;
  }
}

void OpenVpnClient::encapsulate(net::Packet&& inner) {
  Bytes out;
  appendU8(out, kOpData);
  appendU32(out, session_);
  const std::uint32_t seq = ++tx_seq_;
  appendU32(out, seq);
  appendBytes(out, crypto::aes256CfbEncrypt(*cipher_, dataIv(session_, seq),
                                            net::serializePacket(inner)));
  net::Packet pkt =
      net::makeUdp(stack_.node().primaryIp(), config_.remote.ip, local_port_,
                   kOpenVpnPort, std::move(out));
  pkt.measure_tag = inner.measure_tag != 0 ? inner.measure_tag : tag_;
  stack_.node().send(std::move(pkt));
}

void OpenVpnClient::sendKeepalive() {
  if (tun_ == nullptr) return;
  Bytes ping;
  appendU8(ping, kOpPing);
  appendU32(ping, session_);
  stack_.udpSend(local_port_, config_.remote, std::move(ping), tag_);
  keepalive_timer_ =
      stack_.sim().schedule(10 * sim::kSecond, [this] { sendKeepalive(); });
}

void OpenVpnClient::disconnect() {
  keepalive_timer_.cancel();
  timeout_.cancel();
  tun_.reset();
  if (local_port_ != 0) {
    stack_.udpUnbind(local_port_);
    local_port_ = 0;
  }
  session_ = 0;
}

}  // namespace sc::openvpn
