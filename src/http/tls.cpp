#include "http/tls.h"

#include "crypto/hmac.h"

namespace sc::http {

namespace {
constexpr std::uint8_t kRecordHandshake = 0x16;
constexpr std::uint8_t kRecordAppData = 0x17;
constexpr std::uint8_t kMsgClientHello = 1;
constexpr std::uint8_t kMsgServerHello = 2;
constexpr std::uint8_t kMsgKeyExchange = 3;
constexpr std::uint8_t kMsgFinished = 4;
constexpr std::size_t kRecordHeader = 5;  // type, version, length
constexpr std::size_t kMaxRecord = 16 * 1024;

void appendStr16(Bytes& out, std::string_view s) {
  appendU16(out, static_cast<std::uint16_t>(s.size()));
  appendBytes(out, asBytes(s));
}

bool readStr16(ByteView in, std::size_t& off, std::string& s) {
  std::uint16_t len = 0;
  if (!readU16(in, off, len) || in.size() - off < len) return false;
  s.assign(asStringView(in.subspan(off, len)));
  off += len;
  return true;
}

// A record of `type` with room for `payload` bytes in the same buffer:
// the message is appended to it, and sendRecord() writes its length.
Bytes beginRecord(std::uint8_t type, std::size_t payload) {
  Bytes rec;
  rec.reserve(kRecordHeader + payload);
  rec.resize(kRecordHeader);
  std::size_t off = 0;
  writeU8(rec, off, type);
  writeU16(rec, off, 0x0303);
  return rec;
}
}  // namespace

TlsStream::TlsStream(transport::Stream::Ptr raw, sim::Simulator& sim, Role role)
    : raw_(std::move(raw)), sim_(sim), role_(role) {}

void TlsStream::clientHandshake(transport::Stream::Ptr raw,
                                sim::Simulator& sim, TlsClientOptions options,
                                TlsSessionCache* cache, HandshakeCb cb) {
  auto tls = Ptr(new TlsStream(std::move(raw), sim, Role::kClient));
  tls->startClient(std::move(options), cache, std::move(cb));
}

void TlsStream::startClient(TlsClientOptions options, TlsSessionCache* cache,
                            HandshakeCb cb) {
  options_ = std::move(options);
  cache_ = cache;
  handshake_cb_ = std::move(cb);
  hs_state_ = HsState::kExpectServerHello;
  hookRaw();

  client_random_ = sim_.rng().randomBytes(32);
  Bytes ticket;
  if (cache_ != nullptr && options_.allow_resumption)
    ticket = cache_->lookup(options_.sni);
  Bytes hello = beginRecord(
      kRecordHandshake, 1 + 2 + options_.sni.size() + 2 +
                            options_.fingerprint.size() + 32 + 2 + ticket.size());
  appendU8(hello, kMsgClientHello);
  appendStr16(hello, options_.sni);
  appendStr16(hello, options_.fingerprint);
  appendBytes(hello, client_random_);
  appendU16(hello, static_cast<std::uint16_t>(ticket.size()));
  appendBytes(hello, ticket);
  sendRecord(std::move(hello));
}

void TlsStream::startServer(std::string cert_name,
                            std::function<bool(ByteView)> ticket_valid,
                            std::function<Bytes()> ticket_mint,
                            HandshakeCb cb) {
  cert_name_ = std::move(cert_name);
  ticket_valid_ = std::move(ticket_valid);
  ticket_mint_ = std::move(ticket_mint);
  handshake_cb_ = std::move(cb);
  hs_state_ = HsState::kExpectClientHello;
  hookRaw();
}

void TlsStream::hookRaw() {
  // Until the handshake resolves nothing else owns us, so the raw stream's
  // close handler does; the socket drops it when it closes, and ~HostStack
  // when the world ends. Afterwards the application owns us and both
  // callbacks only observe.
  std::weak_ptr<TlsStream> weak = weak_from_this();
  raw_->setOnData([weak](ByteView data) {
    if (auto self = weak.lock()) self->onRawData(data);
  });
  raw_->setOnClose([weak, pending = shared_from_this()] {
    if (auto self = weak.lock()) self->onRawClose();
  });
}

void TlsStream::observeRaw() {
  std::weak_ptr<TlsStream> weak = weak_from_this();
  raw_->setOnClose([weak] {
    if (auto self = weak.lock()) self->onRawClose();
  });
}

void TlsStream::sendRecord(Bytes rec) {
  if (raw_ == nullptr) return;
  std::size_t off = 3;
  writeU16(rec, off, static_cast<std::uint16_t>(rec.size() - kRecordHeader));
  raw_->send(std::move(rec));
}

std::size_t TlsStream::readRecord(ByteView buf) {
  std::size_t off = 0;
  std::uint8_t type = 0;
  std::uint16_t ver = 0, len = 0;
  if (!readU8(buf, off, type) || !readU16(buf, off, ver) ||
      !readU16(buf, off, len) || buf.size() - kRecordHeader < len)
    return 0;
  const ByteView payload = buf.subspan(kRecordHeader, len);
  if (type == kRecordHandshake) {
    // Copied: answering may send, and a loopback raw stream could deliver
    // into the buffer `payload` points at.
    handleHandshakeRecord(Bytes(payload.begin(), payload.end()));
  } else if (type == kRecordAppData && established_ && decryptor_) {
    Bytes plain(len);
    decryptor_->decryptInto(payload, plain.data());
    crypto_bytes_ += plain.size();
    emitData(plain);
  }
  return kRecordHeader + len;
}

void TlsStream::onRawData(ByteView data) {
  records_.feed(
      data, [this](ByteView buf) { return readRecord(buf); },
      [this] { return raw_ != nullptr; });  // a callback may close us
}

void TlsStream::handleHandshakeRecord(ByteView payload) {
  std::size_t off = 0;
  std::uint8_t msg = 0;
  if (!readU8(payload, off, msg)) return fail();

  switch (hs_state_) {
    case HsState::kExpectClientHello: {
      if (msg != kMsgClientHello) return fail();
      std::string sni, fingerprint;
      if (!readStr16(payload, off, sni) ||
          !readStr16(payload, off, fingerprint) ||
          !readBytes(payload, off, 32, client_random_))
        return fail();
      std::uint16_t tlen = 0;
      Bytes ticket;
      if (!readU16(payload, off, tlen) ||
          !readBytes(payload, off, tlen, ticket))
        return fail();
      options_.sni = sni;
      options_.fingerprint = fingerprint;

      server_random_ = sim_.rng().randomBytes(32);
      resumed_ = !ticket.empty() && ticket_valid_ && ticket_valid_(ticket);

      Bytes hello =
          beginRecord(kRecordHandshake, 1 + 32 + 2 + cert_name_.size() + 1);
      appendU8(hello, kMsgServerHello);
      appendBytes(hello, server_random_);
      appendStr16(hello, cert_name_);
      appendU8(hello, resumed_ ? 1 : 0);
      sendRecord(std::move(hello));

      if (resumed_) {
        // Abbreviated: server finishes immediately; waits for client finish.
        Bytes fin = beginRecord(kRecordHandshake, 1 + 2);
        appendU8(fin, kMsgFinished);
        appendU16(fin, 0);  // no new ticket on resumption
        sendRecord(std::move(fin));
        hs_state_ = HsState::kExpectClientFinish;
      } else {
        hs_state_ = HsState::kExpectKeyExchange;
      }
      return;
    }
    case HsState::kExpectServerHello: {
      if (msg != kMsgServerHello) return fail();
      std::string cert;
      std::uint8_t resumed = 0;
      if (!readBytes(payload, off, 32, server_random_) ||
          !readStr16(payload, off, cert) || !readU8(payload, off, resumed))
        return fail();
      cert_name_ = cert;
      resumed_ = resumed != 0;
      if (resumed_) {
        // Wait for the server Finished (arrives in the same flight).
        hs_state_ = HsState::kExpectServerFinish;
      } else {
        Bytes kx = beginRecord(kRecordHandshake, 1 + 48);
        appendU8(kx, kMsgKeyExchange);
        appendBytes(kx, sim_.rng().randomBytes(48));  // premaster stand-in
        sendRecord(std::move(kx));
        hs_state_ = HsState::kExpectServerFinish;
      }
      return;
    }
    case HsState::kExpectKeyExchange: {
      if (msg != kMsgKeyExchange) return fail();
      const Bytes ticket = ticket_mint_ ? ticket_mint_() : Bytes{};
      Bytes fin = beginRecord(kRecordHandshake, 1 + 2 + ticket.size());
      appendU8(fin, kMsgFinished);
      appendU16(fin, static_cast<std::uint16_t>(ticket.size()));
      appendBytes(fin, ticket);
      sendRecord(std::move(fin));
      hs_state_ = HsState::kExpectClientFinish;
      return;
    }
    case HsState::kExpectServerFinish: {
      if (msg != kMsgFinished) return fail();
      std::uint16_t tlen = 0;
      Bytes ticket;
      if (readU16(payload, off, tlen) && readBytes(payload, off, tlen, ticket) &&
          !ticket.empty() && cache_ != nullptr)
        cache_->store(options_.sni, ticket);
      Bytes fin = beginRecord(kRecordHandshake, 1 + 2);
      appendU8(fin, kMsgFinished);
      appendU16(fin, 0);
      sendRecord(std::move(fin));
      finishHandshake();
      return;
    }
    case HsState::kExpectClientFinish: {
      if (msg != kMsgFinished) return fail();
      finishHandshake();
      return;
    }
    case HsState::kDone:
      return;
  }
}

void TlsStream::deriveSessionKeys() {
  Bytes secret;
  secret.reserve(client_random_.size() + server_random_.size());
  appendBytes(secret, client_random_);
  appendBytes(secret, server_random_);
  const crypto::KeyedHmac keys(secret);
  const crypto::Aes256 cipher(keys.derive("tls-master", 32));
  const Bytes iv_c2s = keys.derive("tls-iv-c2s", 16);
  const Bytes iv_s2c = keys.derive("tls-iv-s2c", 16);
  const bool client = role_ == Role::kClient;
  encryptor_ = std::make_unique<crypto::AesCfbStream>(
      cipher, client ? iv_c2s : iv_s2c);
  decryptor_ = std::make_unique<crypto::AesCfbStream>(
      cipher, client ? iv_s2c : iv_c2s);
}

void TlsStream::finishHandshake() {
  deriveSessionKeys();
  hs_state_ = HsState::kDone;
  established_ = true;
  auto keep = shared_from_this();  // ownership passes to the callback
  if (raw_ != nullptr) observeRaw();
  if (auto cb = std::move(handshake_cb_)) cb(keep);
}

void TlsStream::fail() {
  established_ = false;
  // Real TLS stacks answer garbage with a fatal alert before closing. This
  // observable matters: the GFW's active prober treats "responds with
  // *something*" as exoneration and "accepts then stays mute / closes
  // silently" as confirmation of a circumvention server.
  if (role_ == Role::kServer && raw_ != nullptr) {
    Bytes alert = beginRecord(0x15, 2);
    appendU8(alert, 0x02);  // fatal
    appendU8(alert, 0x28);  // handshake_failure
    sendRecord(std::move(alert));
  }
  auto keep = shared_from_this();  // the raw stream's handler owned us
  if (raw_ != nullptr) {
    raw_->setOnData(nullptr);
    raw_->setOnClose(nullptr);
    raw_->close();
    raw_ = nullptr;
  }
  if (auto cb = std::move(handshake_cb_)) cb(nullptr);
}

void TlsStream::onRawClose() {
  const bool mid_handshake = !established_;
  raw_ = nullptr;
  if (mid_handshake) {
    if (auto cb = std::move(handshake_cb_)) cb(nullptr);
    return;
  }
  established_ = false;
  emitClose();
}

void TlsStream::send(Bytes data) {
  if (!established_ || raw_ == nullptr || !encryptor_) return;
  crypto_bytes_ += data.size();
  // Split into TLS-record-sized chunks (16 KB max per record), each
  // encrypted straight into the buffer that carries its header.
  for (std::size_t off = 0; off < data.size() && raw_ != nullptr;) {
    const std::size_t n = std::min(kMaxRecord, data.size() - off);
    Bytes rec = beginRecord(kRecordAppData, n);
    rec.resize(kRecordHeader + n);
    encryptor_->encryptInto(ByteView(data).subspan(off, n),
                            rec.data() + kRecordHeader);
    sendRecord(std::move(rec));
    off += n;
  }
}

void TlsStream::close() {
  if (raw_ != nullptr) {
    raw_->setOnData(nullptr);
    raw_->setOnClose(nullptr);
    raw_->close();
    raw_ = nullptr;
  }
  established_ = false;
}

TlsAcceptor::TlsAcceptor(std::string cert_name, sim::Simulator& sim)
    : cert_name_(std::move(cert_name)), sim_(sim) {}

void TlsAcceptor::accept(transport::Stream::Ptr raw, TlsStream::HandshakeCb cb) {
  auto tls = TlsStream::Ptr(
      new TlsStream(std::move(raw), sim_, TlsStream::Role::kServer));
  tls->startServer(
      cert_name_,
      [this](ByteView ticket) { return issued_tickets_.contains(toHex(ticket)); },
      [this] {
        Bytes t = sim_.rng().randomBytes(16);
        issued_tickets_.insert(toHex(t));
        return t;
      },
      std::move(cb));
}

}  // namespace sc::http
