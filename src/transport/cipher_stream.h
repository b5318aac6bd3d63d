// CipherStream: AES-256-CFB encryption layered over any Stream, with the
// Shadowsocks-style convention that each direction is prefixed by its 16-byte
// IV. Used by Shadowsocks (ss-local <-> ss-remote) and by the ScholarCloud
// tunnel's inner encryption layer.
//
// The key is expanded once per stream: the decryptor, built when the peer's
// IV has arrived, copies the encryptor's schedule. Outgoing data is
// encrypted in the caller's buffer.
#pragma once

#include <algorithm>
#include <array>
#include <memory>

#include "crypto/aes.h"
#include "transport/stream.h"

namespace sc::transport {

class CipherStream final : public Stream,
                           public std::enable_shared_from_this<CipherStream> {
 public:
  using Ptr = std::shared_ptr<CipherStream>;

  // `tx_iv` must be 16 bytes; it is transmitted ahead of the first payload.
  static Ptr wrap(Stream::Ptr inner, ByteView key, ByteView tx_iv) {
    auto s = Ptr(new CipherStream(std::move(inner), key, tx_iv));
    s->hook();
    return s;
  }

  ~CipherStream() override {
    if (inner_ != nullptr) {
      inner_->setOnData(nullptr);
      inner_->setOnClose(nullptr);
    }
  }

  void send(Bytes data) override {
    if (inner_ == nullptr) return;
    encryptor_.encryptInPlace(data);
    if (!iv_sent_) {
      iv_sent_ = true;
      data.reserve(tx_iv_.size() + data.size());  // exact, not doubled
      data.insert(data.begin(), tx_iv_.begin(), tx_iv_.end());
    }
    inner_->send(std::move(data));
  }

  void close() override {
    if (inner_ != nullptr) {
      inner_->setOnData(nullptr);
      inner_->setOnClose(nullptr);
      inner_->close();
      inner_ = nullptr;
    }
  }

  bool connected() const override {
    return inner_ != nullptr && inner_->connected();
  }

 private:
  using Iv = std::array<std::uint8_t, crypto::kAesBlockSize>;

  CipherStream(Stream::Ptr inner, ByteView key, ByteView tx_iv)
      : inner_(std::move(inner)),
        tx_iv_(toIv(tx_iv)),
        encryptor_(crypto::Aes256(key), tx_iv_) {}

  static Iv toIv(ByteView bytes) {
    Iv iv{};
    std::copy_n(bytes.begin(), std::min(bytes.size(), iv.size()), iv.begin());
    return iv;
  }

  // The inner stream's handlers hold only `this`: we own the inner stream
  // and clear them in the destructor.
  void hook() {
    inner_->setOnData([this](ByteView data) { onInner(data); });
    inner_->setOnClose([this] {
      const Ptr keep = shared_from_this();  // the close may drop our owner
      inner_ = nullptr;
      emitClose();
    });
  }

  void onInner(ByteView data) {
    std::size_t off = 0;
    if (decryptor_ == nullptr) {
      // Accumulate the peer's IV before any payload can be decrypted.
      while (rx_iv_size_ < rx_iv_.size() && off < data.size())
        rx_iv_[rx_iv_size_++] = data[off++];
      if (rx_iv_size_ < rx_iv_.size()) return;
      decryptor_ =
          std::make_unique<crypto::AesCfbStream>(encryptor_.cipher(), rx_iv_);
    }
    if (off >= data.size()) return;
    const Bytes plain =
        decryptor_->decrypt(ByteView(data.data() + off, data.size() - off));
    emitData(plain);
  }

  Stream::Ptr inner_;
  Iv tx_iv_;
  Iv rx_iv_{};
  std::uint8_t rx_iv_size_ = 0;
  bool iv_sent_ = false;
  crypto::AesCfbStream encryptor_;
  std::unique_ptr<crypto::AesCfbStream> decryptor_;
};

}  // namespace sc::transport
