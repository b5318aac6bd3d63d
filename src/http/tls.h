// Simulated TLS over any transport::Stream.
//
// What is faithful to real TLS (because the GFW's DPI depends on it):
//  - the record framing (content-type byte, version, length) — DPI looks for
//    the 0x16/0x17 signature;
//  - a plaintext ClientHello carrying the SNI (so the GFW can block by
//    server name — how it kills HTTPS to *.google.com) and a client
//    "fingerprint" string standing in for the cipher-suite/extension list
//    (how the GFW recognizes Tor's TLS stack, per Winter et al.);
//  - handshake latency: full handshake costs 2 RTTs before app data,
//    session resumption (tickets) costs 1 — this is the first-visit vs
//    subsequent-visit PLT gap in Fig. 5a;
//  - application records encrypted with AES-256-CFB under keys derived from
//    both hello randoms, so ciphertext has real high-entropy statistics.
//
// What is simplified: no real key exchange (both ends derive the session key
// from the handshake randoms) and no certificate verification. The GFW in
// this world never tries to decrypt TLS — like its real counterpart, it
// classifies and blocks on metadata — so these shortcuts do not change any
// observable the experiments measure.
//
// Buffers: each record sent is one buffer holding its header and payload
// (app data is encrypted straight into it), handed to the raw stream by
// move. Records arriving are reassembled by a FrameBuffer: read in place
// when whole, buffered only when split across deliveries. Each app-data
// record is decrypted into one plaintext buffer.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "crypto/aes.h"
#include "sim/simulator.h"
#include "transport/stream.h"
#include "util/frame_buffer.h"

namespace sc::http {

struct TlsClientOptions {
  std::string sni;
  std::string fingerprint = "chrome-56";
  bool allow_resumption = true;
};

// Per-browser ticket store enabling abbreviated handshakes.
class TlsSessionCache {
 public:
  void store(const std::string& host, Bytes ticket) {
    tickets_[host] = std::move(ticket);
  }
  Bytes lookup(const std::string& host) const {
    const auto it = tickets_.find(host);
    return it == tickets_.end() ? Bytes{} : it->second;
  }
  void clear() { tickets_.clear(); }

 private:
  std::unordered_map<std::string, Bytes> tickets_;
};

class TlsStream final : public transport::Stream,
                        public std::enable_shared_from_this<TlsStream> {
 public:
  using Ptr = std::shared_ptr<TlsStream>;
  using HandshakeCb = std::function<void(Ptr)>;  // nullptr on failure

  // Starts a client handshake over `raw`. `cache` may be nullptr.
  static void clientHandshake(transport::Stream::Ptr raw, sim::Simulator& sim,
                              TlsClientOptions options, TlsSessionCache* cache,
                              HandshakeCb cb);

  // Stream interface (valid once the handshake completed).
  void send(Bytes data) override;
  void close() override;
  bool connected() const override { return established_ && raw_ != nullptr; }

  const std::string& sni() const noexcept { return options_.sni; }
  bool resumed() const noexcept { return resumed_; }

  // Total plaintext bytes pushed through encrypt/decrypt (CPU accounting).
  std::uint64_t cryptoBytes() const noexcept { return crypto_bytes_; }

 private:
  friend class TlsAcceptor;
  enum class Role { kClient, kServer };
  enum class HsState {
    kExpectServerHello,   // client
    kExpectServerFinish,  // client, full handshake
    kExpectClientHello,   // server
    kExpectKeyExchange,   // server, full handshake
    kExpectClientFinish,  // server
    kDone,
  };

  TlsStream(transport::Stream::Ptr raw, sim::Simulator& sim, Role role);

  void startClient(TlsClientOptions options, TlsSessionCache* cache,
                   HandshakeCb cb);
  void startServer(std::string cert_name,
                   std::function<bool(ByteView)> ticket_valid,
                   std::function<Bytes()> ticket_mint, HandshakeCb cb);

  void hookRaw();
  void observeRaw();
  void onRawData(ByteView data);
  // Handles the record at the front of `buf` if it is whole; returns its
  // wire size, or 0 when `buf` holds only part of one.
  std::size_t readRecord(ByteView buf);
  void onRawClose();
  void handleHandshakeRecord(ByteView payload);
  // Writes the length of a record begun with its header and sends it.
  void sendRecord(Bytes record);
  void deriveSessionKeys();
  void finishHandshake();
  void fail();

  transport::Stream::Ptr raw_;
  sim::Simulator& sim_;
  Role role_;
  HsState hs_state_ = HsState::kDone;
  bool established_ = false;
  bool resumed_ = false;
  TlsClientOptions options_;
  TlsSessionCache* cache_ = nullptr;
  HandshakeCb handshake_cb_;
  std::string cert_name_;
  std::function<bool(ByteView)> ticket_valid_;
  std::function<Bytes()> ticket_mint_;

  Bytes client_random_;
  Bytes server_random_;
  Bytes pending_ticket_;
  std::unique_ptr<crypto::AesCfbStream> encryptor_;
  std::unique_ptr<crypto::AesCfbStream> decryptor_;
  FrameBuffer records_;
  std::uint64_t crypto_bytes_ = 0;
};

// Server side: wraps accepted raw streams into TlsStreams.
class TlsAcceptor {
 public:
  TlsAcceptor(std::string cert_name, sim::Simulator& sim);

  void accept(transport::Stream::Ptr raw, TlsStream::HandshakeCb cb);

  const std::string& certName() const noexcept { return cert_name_; }

 private:
  std::string cert_name_;
  sim::Simulator& sim_;
  std::unordered_set<std::string> issued_tickets_;  // hex-encoded
};

}  // namespace sc::http
