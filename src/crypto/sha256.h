// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: HMAC authentication in the ScholarCloud tunnel, key derivation
// for Shadowsocks (EVP_BytesToKey-style), PKI certificate fingerprints, and
// Tor circuit key material.
//
// processBlocks runs the compression function on SHA-NI when the CPU reports
// `sha`, chosen once per process; otherwise it runs processBlocksReference,
// the portable FIPS 180-4 rounds. Both take the same chaining state and
// produce bit-identical output, which tests check against the reference.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace sc::crypto {

constexpr std::size_t kSha256DigestSize = 32;
constexpr std::size_t kSha256BlockSize = 64;

// H(0), the chaining state before the first block (FIPS 180-4 §5.3.3).
inline constexpr std::array<std::uint32_t, 8> kSha256InitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

class Sha256 {
 public:
  Sha256() noexcept = default;

  void update(ByteView data) noexcept;

  // Finalizes and returns the digest. The object must not be reused after.
  std::array<std::uint8_t, kSha256DigestSize> finish() noexcept;

  // Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
  static void processBlocks(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks) noexcept;
  static void processBlocksReference(std::uint32_t state[8],
                                     const std::uint8_t* data,
                                     std::size_t blocks) noexcept;

  // True when processBlocks runs on SHA-NI in this process.
  static bool hardwareAccelerated() noexcept;

 private:
  std::array<std::uint32_t, 8> h_ = kSha256InitialState;
  std::uint8_t buffer_[kSha256BlockSize] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

// One-shot convenience.
Bytes sha256(ByteView data);

}  // namespace sc::crypto
