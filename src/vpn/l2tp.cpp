#include "vpn/l2tp.h"

#include "crypto/hmac.h"
#include "obs/hub.h"

namespace sc::vpn {

namespace {
constexpr std::uint8_t kIkeInit = 1;   // client hello + nonce
constexpr std::uint8_t kIkeReply = 2;  // spi + inner ip + dns
constexpr std::uint8_t kHello = 3;     // L2TP HELLO keepalive

Bytes espIv(std::uint32_t spi, std::uint32_t seq) {
  Bytes iv(16, 0);
  for (int i = 0; i < 4; ++i) {
    iv[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(spi >> (8 * i));
    iv[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return iv;
}

// Serializes `inner` directly into `out` and encrypts it in place: one
// buffer for the whole encap instead of serialize + encrypt temporaries.
void espEncryptInto(const crypto::Aes256& cipher, std::uint32_t spi,
                    std::uint32_t seq, const net::Packet& inner, Bytes& out) {
  net::serializePacketInto(inner, out);
  crypto::aes256CfbEncryptInPlace(cipher, espIv(spi, seq), out);
}

// Consumes the ESP payload: decrypts in place, then the parsed inner packet
// steals the buffer for its own payload.
std::optional<net::Packet> espDecrypt(const crypto::Aes256& cipher,
                                      std::uint32_t spi, std::uint32_t seq,
                                      Bytes&& payload) {
  crypto::aes256CfbDecryptInPlace(cipher, espIv(spi, seq), payload);
  return net::parsePacket(std::move(payload));
}
}  // namespace

// -------------------------------------------------------------------- server

L2tpServer::L2tpServer(transport::HostStack& stack, L2tpServerOptions options)
    : stack_(stack), options_(std::move(options)), nat_(stack, 40000, 60000, 9e4, 26.0) {
  stack_.udpBind(kL2tpControlPort,
                 [this](net::Endpoint from, ByteView data, std::uint32_t tag) {
                   onControl(from, data, tag);
                 });
  stack_.setRawHandler(net::IpProto::kEsp, [this](net::Packet&& pkt) {
    onEsp(std::move(pkt));
  });
  nat_.setReturnPath([this](std::uint64_t session_id, net::Packet&& inner) {
    const auto it = sessions_.find(static_cast<std::uint32_t>(session_id));
    if (it == sessions_.end()) return;
    Session& s = it->second;
    net::Packet outer;
    outer.src = stack_.node().primaryIp();
    outer.dst = s.client_outer;
    outer.proto = net::IpProto::kEsp;
    const std::uint32_t seq = ++tx_seq_;
    outer.l4 = net::EspFrame{s.spi, seq};
    espEncryptInto(s.cipher, s.spi, seq, inner, outer.payload);
    outer.measure_tag = inner.measure_tag;
    stack_.node().send(std::move(outer));
  });
}

void L2tpServer::onControl(net::Endpoint from, ByteView data,
                           std::uint32_t tag) {
  std::size_t off = 0;
  std::uint8_t msg = 0;
  if (!readU8(data, off, msg) || msg != kIkeInit) return;
  Bytes nonce;
  if (!readBytes(data, off, 16, nonce)) return;

  const std::uint32_t spi = next_spi_++;
  const net::Ipv4 inner{options_.inner_base.v + next_inner_++};
  Bytes salt = nonce;
  appendU32(salt, spi);
  sessions_.insert_or_assign(
      spi, Session{spi, from.ip, inner,
                   crypto::Aes256(crypto::deriveKey(options_.pre_shared_key,
                                                    toString(salt), 32))});

  Bytes reply;
  appendU8(reply, kIkeReply);
  appendU32(reply, spi);
  appendU32(reply, inner.v);
  appendU32(reply, options_.advertised_dns.v);
  stack_.udpSend(kL2tpControlPort, from, std::move(reply), tag);
}

void L2tpServer::onEsp(net::Packet&& pkt) {
  const auto& esp = std::get<net::EspFrame>(pkt.l4);
  const auto it = sessions_.find(esp.spi);
  if (it == sessions_.end()) return;
  auto inner =
      espDecrypt(it->second.cipher, esp.spi, esp.seq, std::move(pkt.payload));
  if (!inner.has_value()) return;
  inner->measure_tag = pkt.measure_tag;
  ++forwarded_;
  nat_.forwardOutbound(std::move(*inner), esp.spi);
}

// -------------------------------------------------------------------- client

L2tpClient::L2tpClient(transport::HostStack& stack, net::Endpoint server,
                       Bytes pre_shared_key, std::uint32_t measure_tag)
    : stack_(stack),
      server_(server),
      psk_(std::move(pre_shared_key)),
      tag_(measure_tag) {}

L2tpClient::~L2tpClient() { disconnect(); }

net::Ipv4 L2tpClient::innerIp() const {
  return tun_ != nullptr ? tun_->innerIp() : net::Ipv4{};
}

void L2tpClient::connect(ConnectCb cb) {
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "l2tp",
                     server_.str());
  connect_cb_ = [this, span, cb = std::move(cb)](bool ok) {
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(span, ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError);
    cb(ok);
  };
  control_port_ = stack_.allocatePort();
  const Bytes nonce = stack_.sim().rng().randomBytes(16);

  stack_.udpBind(control_port_, [this, nonce](net::Endpoint, ByteView data,
                                              std::uint32_t) {
    std::size_t off = 0;
    std::uint8_t msg = 0;
    std::uint32_t spi = 0, inner = 0, dns = 0;
    if (!readU8(data, off, msg) || msg != kIkeReply ||
        !readU32(data, off, spi) || !readU32(data, off, inner) ||
        !readU32(data, off, dns))
      return;
    timeout_.cancel();
    spi_ = spi;
    advertised_dns_ = net::Ipv4(dns);

    Bytes salt = nonce;
    appendU32(salt, spi);
    cipher_.emplace(crypto::deriveKey(psk_, toString(salt), 32));

    stack_.setRawHandler(net::IpProto::kEsp, [this](net::Packet&& pkt) {
      onEsp(std::move(pkt));
    });
    const net::Endpoint server = server_;
    const net::Port cport = control_port_;
    tun_ = std::make_unique<TunDevice>(
        stack_.node(), net::Ipv4(inner),
        [this](net::Packet&& pkt) { encapsulate(std::move(pkt)); },
        [server, cport](const net::Packet& pkt) {
          if (pkt.isEsp()) return true;
          return pkt.dst == server.ip && pkt.isUdp() &&
                 (pkt.udp().dst_port == kL2tpControlPort ||
                  pkt.udp().src_port == cport);
        });
    sendKeepalive();
    if (auto done = std::move(connect_cb_)) done(true);
  });

  Bytes init;
  appendU8(init, kIkeInit);
  appendBytes(init, nonce);
  stack_.udpSend(control_port_, net::Endpoint{server_.ip, kL2tpControlPort},
                 std::move(init), tag_);
  timeout_ = stack_.sim().schedule(10 * sim::kSecond, [this] {
    if (auto done = std::move(connect_cb_)) done(false);
  });
}

void L2tpClient::sendKeepalive() {
  if (tun_ == nullptr) return;
  Bytes hello;
  appendU8(hello, kHello);
  stack_.udpSend(control_port_, net::Endpoint{server_.ip, kL2tpControlPort},
                 std::move(hello), tag_);
  keepalive_timer_ =
      stack_.sim().schedule(5 * sim::kSecond, [this] { sendKeepalive(); });
}

void L2tpClient::disconnect() {
  keepalive_timer_.cancel();
  timeout_.cancel();
  tun_.reset();
  if (control_port_ != 0) {
    stack_.udpUnbind(control_port_);
    control_port_ = 0;
  }
}

void L2tpClient::encapsulate(net::Packet&& inner) {
  net::Packet outer;
  outer.src = stack_.node().primaryIp();
  outer.dst = server_.ip;
  outer.proto = net::IpProto::kEsp;
  const std::uint32_t seq = ++esp_seq_;
  outer.l4 = net::EspFrame{spi_, seq};
  espEncryptInto(*cipher_, spi_, seq, inner, outer.payload);
  outer.measure_tag = inner.measure_tag != 0 ? inner.measure_tag : tag_;
  stack_.node().send(std::move(outer));
}

void L2tpClient::onEsp(net::Packet&& pkt) {
  const auto& esp = std::get<net::EspFrame>(pkt.l4);
  if (tun_ == nullptr || esp.spi != spi_) return;
  auto inner =
      espDecrypt(*cipher_, esp.spi, esp.seq, std::move(pkt.payload));
  if (!inner.has_value()) return;
  inner->measure_tag = pkt.measure_tag;
  tun_->injectInbound(std::move(*inner));
}

}  // namespace sc::vpn
