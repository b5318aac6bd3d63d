#include "shadowsocks/shadowsocks.h"

#include "crypto/hmac.h"
#include "obs/hub.h"

namespace sc::shadowsocks {

Bytes keyFromPassword(const std::string& password) {
  // EVP_BytesToKey-style stretch (SHA-256 based in this implementation).
  return crypto::deriveKey(toBytes(password), "ss-key", 32);
}

Bytes encodeTargetAddress(const transport::ConnectTarget& target) {
  Bytes out;
  if (target.byName()) {
    appendU8(out, 0x03);
    appendU8(out, static_cast<std::uint8_t>(target.host.size()));
    appendBytes(out, toBytes(target.host));
  } else {
    appendU8(out, 0x01);
    appendU32(out, target.ip.v);
  }
  appendU16(out, target.port);
  return out;
}

std::optional<transport::ConnectTarget> decodeTargetAddress(ByteView data,
                                                            std::size_t& off) {
  std::uint8_t atyp = 0;
  if (!readU8(data, off, atyp)) return std::nullopt;
  transport::ConnectTarget target;
  if (atyp == 0x01) {
    std::uint32_t ip = 0;
    if (!readU32(data, off, ip)) return std::nullopt;
    target.ip = net::Ipv4(ip);
  } else if (atyp == 0x03) {
    std::uint8_t len = 0;
    Bytes host;
    if (!readU8(data, off, len) || !readBytes(data, off, len, host))
      return std::nullopt;
    target.host = toString(host);
  } else {
    return std::nullopt;
  }
  if (!readU16(data, off, target.port)) return std::nullopt;
  return target;
}

// -------------------------------------------------------------------- remote

ShadowsocksRemote::ShadowsocksRemote(transport::HostStack& stack,
                                     const std::string& password,
                                     RemoteOptions options)
    : stack_(stack),
      key_(keyFromPassword(password)),
      options_(options),
      resolver_(stack, options.dns_server) {
  auth_listener_ = stack_.tcpListen(
      options_.auth_port,
      [this](transport::TcpSocket::Ptr sock) { onAuthStream(std::move(sock)); });
  data_listener_ = stack_.tcpListen(
      options_.data_port,
      [this](transport::TcpSocket::Ptr sock) { onDataStream(std::move(sock)); });
}

void ShadowsocksRemote::onAuthStream(transport::TcpSocket::Ptr sock) {
  // Auth channel: client HELLO -> server nonce -> client HMAC -> OK. The
  // server-issued nonce defeats replay. After that the channel stays up and
  // approves proxied connections: one 0x02 request per connection, one 0x02
  // reply each — Fig. 4's "TCP 1" round trips.
  struct AuthSession {
    enum class State { kExpectHello, kExpectMac, kApproved };
    State state = State::kExpectHello;
    Bytes buffer;
    Bytes nonce;
  };
  auto session = std::make_shared<AuthSession>();
  // The channel owns itself through its data handler: the server never
  // closes an idle channel, and a client's hangup leaves it in CloseWait,
  // still answering late segments. Its teardown (or ~HostStack) frees it.
  auto keep = sock;
  sock->setOnData([this, keep, session](ByteView data) {
    appendBytes(session->buffer, data);
    auto& buf = session->buffer;
    switch (session->state) {
      case AuthSession::State::kExpectHello: {
        if (buf.empty()) return;
        if (buf[0] != 0x05) {
          // Garbage (e.g. an active probe): the mute treatment.
          keep->close();
          return;
        }
        buf.erase(buf.begin());
        session->nonce = stack_.sim().rng().randomBytes(16);
        session->state = AuthSession::State::kExpectMac;
        keep->send(session->nonce);
        return;
      }
      case AuthSession::State::kExpectMac: {
        if (buf.size() < 32) return;
        Bytes mac_input = session->nonce;
        appendBytes(mac_input, toBytes("ss-auth"));
        const Bytes expected = crypto::hmacSha256(key_, mac_input);
        if (!ctEqual(ByteView(buf.data(), 32), expected)) {
          keep->close();  // wrong password: silent hangup (probe-resistant)
          return;
        }
        buf.erase(buf.begin(), buf.begin() + 32);
        session->state = AuthSession::State::kApproved;
        ++auths_;
        // Credential verification + session setup is the expensive part of
        // each HTTP session; it serializes on the single core (Fig. 7).
        stack_.cpu().submit(2e7, [keep] { keep->send(Bytes{0x01}); });
        return;
      }
      case AuthSession::State::kApproved: {
        std::size_t approvals = 0;
        for (const std::uint8_t b : buf)
          if (b == 0x02) ++approvals;
        buf.clear();
        for (std::size_t i = 0; i < approvals; ++i)
          stack_.cpu().submit(5e6, [keep] { keep->send(Bytes{0x02}); });
        return;
      }
    }
  });
}

void ShadowsocksRemote::onDataStream(transport::TcpSocket::Ptr sock) {
  ++connections_;
  // Per-connection cipher context setup costs CPU; bytes arriving meanwhile
  // are held by the stream's pending buffer. This per-connection work is
  // what bends the Shadowsocks curve in Fig. 7 once ~60 clients pile on.
  stack_.cpu().submit(3e7, [this, sock] { startDataStream(sock); });
}

void ShadowsocksRemote::startDataStream(transport::TcpSocket::Ptr sock) {
  auto cipher = transport::CipherStream::wrap(
      sock, key_, stack_.sim().rng().randomBytes(16));

  // State machine: accumulate plaintext until the target header is complete,
  // then connect out and bridge.
  auto buffer = std::make_shared<Bytes>();
  auto connected = std::make_shared<bool>(false);
  // The server owns the stream until it is bridged (or fails); its own
  // handlers only observe it.
  pending_streams_.insert(cipher);
  std::weak_ptr<transport::Stream> weak = cipher;

  cipher->setOnData([this, weak, buffer, connected](ByteView data) {
    const transport::Stream::Ptr client = weak.lock();
    if (client == nullptr) return;
    if (*connected) return;  // bridging installed; shouldn't happen
    appendBytes(*buffer, data);
    std::size_t off = 0;
    const auto target = decodeTargetAddress(*buffer, off);
    if (!target.has_value()) {
      if (buffer->size() > 512) {
        // Garbage that never decodes (e.g. an active probe): close without
        // sending a byte.
        ++decode_failures_;
        client->close();
        pending_streams_.erase(client);
      }
      return;
    }
    *connected = true;
    Bytes residue(buffer->begin() + static_cast<std::ptrdiff_t>(off),
                  buffer->end());
    // Detach our header handler: bytes arriving while the upstream connect
    // is in flight accumulate in the stream's pending buffer and flush when
    // bridgeStreams installs the relay handler.
    client->setOnData(nullptr);

    auto finish = [this, client, residue](transport::Stream::Ptr upstream) {
      pending_streams_.erase(client);
      if (upstream == nullptr) {
        client->close();
        return;
      }
      if (!residue.empty()) upstream->send(residue);
      transport::bridgeStreams(client, upstream);
    };

    if (target->byName()) {
      // ss-remote resolves names with its own (uncensored) resolver.
      const auto port = target->port;
      resolver_.resolve(target->host, [this, port,
                                       finish](std::optional<net::Ipv4> ip) {
        if (!ip.has_value()) {
          finish(nullptr);
          return;
        }
        stack_.directConnector()->connect(
            transport::ConnectTarget::byAddress({*ip, port}), finish);
      });
    } else {
      stack_.directConnector()->connect(
          transport::ConnectTarget::byAddress({target->ip, target->port}),
          finish);
    }
  });
}

// --------------------------------------------------------------------- local

ShadowsocksLocal::ShadowsocksLocal(transport::HostStack& stack,
                                   LocalOptions options,
                                   std::uint32_t measure_tag)
    : stack_(stack),
      options_(std::move(options)),
      tag_(measure_tag),
      key_(keyFromPassword(options_.password)) {
  socks_ = std::make_unique<http::SocksServer>(
      [this](transport::ConnectTarget target, transport::Stream::Ptr client,
             std::function<void(bool)> respond) {
        onSocksRequest(std::move(target), std::move(client),
                       std::move(respond));
      });
  listener_ = stack_.tcpListen(options_.local_port,
                               [this](transport::TcpSocket::Ptr sock) {
                                 socks_->accept(std::move(sock));
                               });
}

void ShadowsocksLocal::failAuthChannel() {
  if (auth_span_ != 0) {
    if (auto* sp = obs::spansOf(stack_.sim()))
      sp->end(auth_span_, obs::SpanStatus::kError);
    auth_span_ = 0;
  }
  auth_established_ = false;
  auth_establishing_ = false;
  auth_got_nonce_ = false;
  if (auth_sock_ != nullptr) {
    auth_sock_->setOnData(nullptr);
    auth_sock_->setOnClose(nullptr);
    auth_sock_->close();
    auth_sock_ = nullptr;
  }
  auto waiting = std::move(waiting_for_channel_);
  waiting_for_channel_.clear();
  auto in_flight = std::move(approvals_in_flight_);
  approvals_in_flight_.clear();
  for (auto& cb : waiting) cb(false);
  for (auto& cb : in_flight) cb(false);
}

void ShadowsocksLocal::sendApproval(std::function<void(bool)> cb) {
  approvals_in_flight_.push_back(std::move(cb));
  auth_last_used_ = stack_.sim().now();
  auth_sock_->send(Bytes{0x02});
}

void ShadowsocksLocal::onAuthData(ByteView data) {
  for (const std::uint8_t byte : data) {
    if (!auth_established_) {
      // Handshake phase is handled in establishAuthChannel's buffer logic.
      continue;
    }
    if (byte != 0x02 || approvals_in_flight_.empty()) continue;
    auto cb = std::move(approvals_in_flight_.front());
    approvals_in_flight_.pop_front();
    auth_last_used_ = stack_.sim().now();
    cb(true);
  }
}

void ShadowsocksLocal::establishAuthChannel() {
  auth_establishing_ = true;
  auth_got_nonce_ = false;
  ++auth_round_trips_;
  if (auto* sp = obs::spansOf(stack_.sim()))
    auth_span_ = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "ss-auth",
                           options_.remote.str());
  stack_.tcpConnect(
      net::Endpoint{options_.remote.ip, kDefaultAuthPort},
      [this](transport::TcpSocket::Ptr sock) {
        if (sock == nullptr) {
          failAuthChannel();
          return;
        }
        auth_sock_ = sock;
        sock->setOnData([this](ByteView data) {
          if (auth_established_) {
            onAuthData(data);
            return;
          }
          if (!auth_got_nonce_) {
            if (data.size() < 16) return;
            auth_got_nonce_ = true;
            Bytes mac_input(data.begin(), data.begin() + 16);
            appendBytes(mac_input, toBytes("ss-auth"));
            auth_sock_->send(crypto::hmacSha256(key_, mac_input));
            return;
          }
          if (data.empty() || data[0] != 0x01) {
            failAuthChannel();
            return;
          }
          auth_established_ = true;
          auth_establishing_ = false;
          auth_last_used_ = stack_.sim().now();
          if (auth_span_ != 0) {
            if (auto* sp = obs::spansOf(stack_.sim()))
              sp->end(auth_span_, obs::SpanStatus::kOk);
            auth_span_ = 0;
          }
          auto waiting = std::move(waiting_for_channel_);
          waiting_for_channel_.clear();
          for (auto& cb : waiting) sendApproval(std::move(cb));
          if (data.size() > 1)
            onAuthData(ByteView(data.data() + 1, data.size() - 1));
        });
        sock->setOnClose([this] { failAuthChannel(); });
        sock->send(Bytes{0x05});  // HELLO
      },
      tag_);
}

void ShadowsocksLocal::requestApproval(std::function<void(bool)> cb) {
  const sim::Time now = stack_.sim().now();
  const bool expired = now - auth_last_used_ > options_.keepalive_timeout;
  if (auth_established_ && !expired) {
    sendApproval(std::move(cb));
    return;
  }
  // Idle past the keep-alive (or never connected): reinitialize the
  // authentication procedure, exactly as the paper describes.
  if (auth_established_ && expired) {
    auth_established_ = false;
    if (auth_sock_ != nullptr) {
      auth_sock_->setOnData(nullptr);
      auth_sock_->setOnClose(nullptr);
      auth_sock_->close();
      auth_sock_ = nullptr;
    }
  }
  waiting_for_channel_.push_back(std::move(cb));
  if (!auth_establishing_) establishAuthChannel();
}

void ShadowsocksLocal::openDataStream(const transport::ConnectTarget& target,
                                      transport::Stream::Ptr client,
                                      std::function<void(bool)> respond) {
  auto direct = stack_.directConnector(tag_);
  direct->connect(
      transport::ConnectTarget::byAddress(options_.remote),
      [this, target, client,
       respond = std::move(respond)](transport::Stream::Ptr raw) {
        if (raw == nullptr) {
          respond(false);
          return;
        }
        ++streams_;
        auto cipher = transport::CipherStream::wrap(
            std::move(raw), key_, stack_.sim().rng().randomBytes(16));
        cipher->send(encodeTargetAddress(target));
        respond(true);
        transport::bridgeStreams(client, cipher);
      });
}

void ShadowsocksLocal::onSocksRequest(transport::ConnectTarget target,
                                      transport::Stream::Ptr client,
                                      std::function<void(bool)> respond) {
  requestApproval([this, target = std::move(target), client,
                   respond = std::move(respond)](bool ok) {
    if (!ok) {
      respond(false);
      return;
    }
    openDataStream(target, client, respond);
  });
}

}  // namespace sc::shadowsocks
