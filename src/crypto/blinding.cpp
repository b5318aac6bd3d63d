#include "crypto/blinding.h"

#include "crypto/hmac.h"

namespace sc::crypto {

BlindingCodec::BlindingCodec(ByteView secret, std::uint32_t epoch,
                             BlindingMode mode)
    : secret_(secret.begin(), secret.end()), epoch_(epoch), mode_(mode) {
  rebuildTables();
}

void BlindingCodec::rotate(std::uint32_t new_epoch) {
  epoch_ = new_epoch;
  rebuildTables();
}

void BlindingCodec::rebuildTables() {
  // Fisher–Yates shuffle keyed by deriveKey(secret, epoch): both endpoints
  // derive the identical permutation with no on-wire negotiation.
  Bytes label = toBytes("blinding-epoch-");
  appendU32(label, epoch_);
  const Bytes stream = deriveKey(secret_, toString(label), 1024);

  for (int i = 0; i < 256; ++i) forward_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  std::size_t s = 0;
  for (int i = 255; i > 0; --i) {
    const std::uint16_t r =
        static_cast<std::uint16_t>(stream[s] << 8 | stream[s + 1]);
    s += 2;
    const int j = r % (i + 1);
    std::swap(forward_[static_cast<std::size_t>(i)], forward_[static_cast<std::size_t>(j)]);
  }
  for (int i = 0; i < 256; ++i) inverse_[forward_[static_cast<std::size_t>(i)]] = static_cast<std::uint8_t>(i);

  // Printable alphabet: a keyed selection of 64 printable characters.
  alpha_inv_.fill(-1);
  std::size_t count = 0;
  for (int i = 0; i < 256 && count < 64; ++i) {
    const std::uint8_t c = forward_[static_cast<std::size_t>(i)];
    if (c >= 0x21 && c <= 0x7e) {  // visible ASCII
      alphabet_[count] = c;
      alpha_inv_[c] = static_cast<std::int16_t>(count);
      ++count;
    }
  }
}

std::size_t BlindingCodec::blindedSize(std::size_t n) const noexcept {
  return mode_ == BlindingMode::kByteMap ? n : (n + 2) / 3 * 4 + 1;
}

void BlindingCodec::blindInto(ByteView data, std::uint8_t* out) const noexcept {
  if (mode_ == BlindingMode::kByteMap) {
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = forward_[data[i]];
    return;
  }
  // Printable: 3 bytes -> 4 alphabet chars (tail handled with length nibble).
  const auto put4 = [&](std::uint32_t n) {
    *out++ = alphabet_[n >> 18 & 63];
    *out++ = alphabet_[n >> 12 & 63];
    *out++ = alphabet_[n >> 6 & 63];
    *out++ = alphabet_[n & 63];
  };
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3)
    put4(std::uint32_t{data[i]} << 16 | std::uint32_t{data[i + 1]} << 8 |
         data[i + 2]);
  const std::size_t rem = data.size() - i;
  if (rem > 0) {
    std::uint32_t n = std::uint32_t{data[i]} << 16;
    if (rem == 2) n |= std::uint32_t{data[i + 1]} << 8;
    put4(n);
  }
  // Unambiguous trailer: one char carrying the remainder length (0..2).
  *out = alphabet_[rem];
}

Bytes BlindingCodec::blind(ByteView data) const {
  Bytes out(blindedSize(data.size()));
  blindInto(data, out.data());
  return out;
}

Bytes BlindingCodec::unblind(ByteView data) const {
  if (mode_ == BlindingMode::kByteMap) {
    Bytes out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = inverse_[data[i]];
    return out;
  }
  if (data.empty() || data.size() % 4 != 1) return {};
  const std::int16_t rem_val = alpha_inv_[data[data.size() - 1]];
  if (rem_val < 0 || rem_val > 2) return {};
  const auto rem = static_cast<std::size_t>(rem_val);
  Bytes out;
  out.reserve(data.size() / 4 * 3);
  for (std::size_t i = 0; i + 4 < data.size(); i += 4) {
    int v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = alpha_inv_[data[i + static_cast<std::size_t>(k)]];
      if (v[k] < 0) return {};
    }
    const std::uint32_t n = std::uint32_t(v[0]) << 18 | std::uint32_t(v[1]) << 12 |
                            std::uint32_t(v[2]) << 6 | std::uint32_t(v[3]);
    out.push_back(static_cast<std::uint8_t>(n >> 16));
    out.push_back(static_cast<std::uint8_t>(n >> 8));
    out.push_back(static_cast<std::uint8_t>(n));
  }
  if (rem > 0) {
    if (out.size() < 3 - rem) return {};
    out.resize(out.size() - (3 - rem));
  }
  return out;
}

double BlindingCodec::expansionFactor() const noexcept {
  return mode_ == BlindingMode::kByteMap ? 1.0 : 4.0 / 3.0;
}

}  // namespace sc::crypto
