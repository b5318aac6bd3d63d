// HMAC-SHA256 (RFC 2104) and a small HKDF-style key-derivation helper.
#pragma once

#include <array>
#include <string_view>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace sc::crypto {

// HMAC-SHA256 keyed once: the inner and outer hashes with their ipad/opad
// block already absorbed. Each MAC or derivation copies these midstates, so
// several labels under one secret pay for the key blocks once.
class KeyedHmac {
 public:
  explicit KeyedHmac(ByteView key);

  Bytes mac(ByteView message) const;

  // `n` bytes of key material for `label`, HKDF-expand flavour:
  // T(i) = HMAC(key, T(i-1) || label || i), with i one byte. Returns empty
  // when `n` exceeds kMaxDerive: a 256th block would wrap the counter and
  // repeat the first block's input.
  Bytes derive(std::string_view label, std::size_t n) const;

  static constexpr std::size_t kMaxDerive = 255 * kSha256DigestSize;

 private:
  using Digest = std::array<std::uint8_t, kSha256DigestSize>;

  Digest finish(Sha256& inner) const noexcept;

  Sha256 inner_;
  Sha256 outer_;
};

Bytes hmacSha256(ByteView key, ByteView message);

// Derives `n` bytes of key material from (secret, label). This is the key
// schedule used by the ScholarCloud tunnel and the simulated TLS layer.
Bytes deriveKey(ByteView secret, std::string_view label, std::size_t n);

}  // namespace sc::crypto
