#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

namespace sc::crypto {

KeyedHmac::KeyedHmac(ByteView key) {
  std::uint8_t k[kSha256BlockSize] = {};
  if (key.size() > kSha256BlockSize) {
    Sha256 h;
    h.update(key);
    const Digest d = h.finish();
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[kSha256BlockSize] = {}, opad[kSha256BlockSize] = {};
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

KeyedHmac::Digest KeyedHmac::finish(Sha256& inner) const noexcept {
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Bytes KeyedHmac::mac(ByteView message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest d = finish(inner);
  return Bytes(d.begin(), d.end());
}

Bytes KeyedHmac::derive(std::string_view label, std::size_t n) const {
  if (n > kMaxDerive) return {};
  const ByteView label_bytes(reinterpret_cast<const std::uint8_t*>(label.data()),
                             label.size());
  Bytes out;
  out.reserve(n);
  Digest prev{};
  std::uint8_t counter = 1;
  while (out.size() < n) {
    Sha256 inner = inner_;
    if (!out.empty()) inner.update(prev);
    inner.update(label_bytes);
    inner.update(ByteView(&counter, 1));
    ++counter;
    prev = finish(inner);
    const std::size_t take = std::min(prev.size(), n - out.size());
    out.insert(out.end(), prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

Bytes hmacSha256(ByteView key, ByteView message) {
  return KeyedHmac(key).mac(message);
}

Bytes deriveKey(ByteView secret, std::string_view label, std::size_t n) {
  return KeyedHmac(secret).derive(label, n);
}

}  // namespace sc::crypto
