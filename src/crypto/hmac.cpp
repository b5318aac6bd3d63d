#include "crypto/hmac.h"

#include <array>

#include "crypto/sha256.h"

namespace sc::crypto {

namespace {

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

// HMAC-SHA256 keyed once: the inner and outer hashes with their ipad/opad
// block already absorbed. Each MAC copies these midstates, so it costs only
// the message's blocks plus one outer block.
class KeyedHmac {
 public:
  explicit KeyedHmac(ByteView key) {
    constexpr std::size_t kBlock = 64;
    Bytes k(key.begin(), key.end());
    if (k.size() > kBlock) k = sha256(k);
    k.resize(kBlock, 0);

    std::array<std::uint8_t, kBlock> ipad{}, opad{};
    for (std::size_t i = 0; i < kBlock; ++i) {
      ipad[i] = k[i] ^ 0x36;
      opad[i] = k[i] ^ 0x5c;
    }
    inner_.update(ipad);
    outer_.update(opad);
  }

  // An inner hash ready for the message.
  Sha256 begin() const noexcept { return inner_; }

  Digest finish(Sha256& inner) const noexcept {
    const Digest inner_digest = inner.finish();
    Sha256 outer = outer_;
    outer.update(inner_digest);
    return outer.finish();
  }

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace

Bytes hmacSha256(ByteView key, ByteView message) {
  const KeyedHmac hmac(key);
  Sha256 inner = hmac.begin();
  inner.update(message);
  const Digest d = hmac.finish(inner);
  return Bytes(d.begin(), d.end());
}

Bytes deriveKey(ByteView secret, std::string_view label, std::size_t n) {
  // HKDF-expand flavour: T(i) = HMAC(secret, T(i-1) || label || i).
  const KeyedHmac hmac(secret);
  const ByteView label_bytes(reinterpret_cast<const std::uint8_t*>(label.data()),
                             label.size());
  Bytes out;
  out.reserve(n);
  Digest prev{};
  std::uint8_t counter = 1;
  while (out.size() < n) {
    Sha256 inner = hmac.begin();
    if (!out.empty()) inner.update(prev);
    inner.update(label_bytes);
    inner.update(ByteView(&counter, 1));
    ++counter;
    prev = hmac.finish(inner);
    const std::size_t take = std::min(prev.size(), n - out.size());
    out.insert(out.end(), prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

}  // namespace sc::crypto
