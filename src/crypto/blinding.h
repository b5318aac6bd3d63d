// Message blinding — the paper's core anti-DPI trick (§3, "Message blinding").
//
// ScholarCloud obfuscates already-encrypted traffic by encoding it into a
// format the GFW does not recognize. The paper reports that even a simple
// secret byte mapping f : [0,2^8) -> [0,2^8) suffices. We implement exactly
// that: a keyed permutation of the byte alphabet (a substitution cipher over
// ciphertext, which is information-theoretically harmless to apply on top of
// AES but destroys every protocol signature the DPI knows), plus an optional
// "shaping" variant that re-encodes into a printable alphabet so the flow
// mimics innocuous text protocols and defeats high-entropy classifiers.
//
// Because operators control both proxy endpoints, the mapping can be rotated
// at any time (agility against GFW adaptation) — see BlindingCodec::rotate().
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sc::crypto {

enum class BlindingMode : std::uint8_t {
  kByteMap,    // secret permutation of [0,256): fast, entropy-preserving
  kPrintable,  // base-64-ish re-encoding with keyed alphabet: entropy-lowering
};

class BlindingCodec {
 public:
  // Derives the permutation deterministically from (secret, epoch) so both
  // proxy endpoints stay in sync without extra handshakes.
  BlindingCodec(ByteView secret, std::uint32_t epoch = 0,
                BlindingMode mode = BlindingMode::kByteMap);

  Bytes blind(ByteView data) const;
  Bytes unblind(ByteView data) const;
  // blind() into a caller's buffer of blindedSize(data.size()) bytes, so a
  // framed writer can put the header and the blinded bytes in one buffer.
  std::size_t blindedSize(std::size_t n) const noexcept;
  void blindInto(ByteView data, std::uint8_t* out) const noexcept;

  // Re-keys the codec to a new epoch; both sides call this in lockstep when
  // the operators decide the GFW may have learned the current mapping.
  void rotate(std::uint32_t new_epoch);

  BlindingMode mode() const noexcept { return mode_; }
  std::uint32_t epoch() const noexcept { return epoch_; }

  // Wire expansion factor (printable mode inflates 3 bytes -> 4 chars).
  double expansionFactor() const noexcept;

 private:
  void rebuildTables();

  Bytes secret_;
  std::uint32_t epoch_;
  BlindingMode mode_;
  std::array<std::uint8_t, 256> forward_{};
  std::array<std::uint8_t, 256> inverse_{};
  std::array<std::uint8_t, 64> alphabet_{};    // printable mode
  std::array<std::int16_t, 256> alpha_inv_{};  // printable mode
};

}  // namespace sc::crypto
