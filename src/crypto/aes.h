// AES-256 (FIPS 197) block cipher and CFB-128 stream mode, from scratch.
//
// Shadowsocks in the paper's testbed uses AES-256-CFB; the simulated TLS
// record layer and the ScholarCloud inner tunnel reuse the same primitive.
// The cipher is real because ciphertext byte statistics (what the GFW's
// entropy classifier sees) and every trace hash depend on the exact bytes.
//
// encryptBlock runs the rounds on AES-NI when the CPU reports `aes`, chosen
// once per process; otherwise it runs encryptBlockReference, the portable
// byte-wise FIPS-197 rounds. Both read the same key schedule and produce
// bit-identical output, which tests check against the reference.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace sc::crypto {

constexpr std::size_t kAesBlockSize = 16;
constexpr std::size_t kAes256KeySize = 32;

class Aes256 {
 public:
  // Key must be exactly kAes256KeySize bytes; shorter keys are zero-padded,
  // longer keys truncated (callers should always pass 32 bytes).
  explicit Aes256(ByteView key) noexcept;

  // `in` and `out` may be the same block.
  void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const noexcept;
  void encryptBlockReference(const std::uint8_t in[16],
                             std::uint8_t out[16]) const noexcept;

  // True when encryptBlock runs on AES-NI in this process.
  static bool hardwareAccelerated() noexcept;

 private:
  // 15 round keys of 16 bytes each for AES-256 (14 rounds + initial), in
  // FIPS-197 byte order — the layout AES-NI round instructions take as is.
  std::array<std::uint8_t, 16 * 15> round_keys_{};
};

// CFB-128 segment mode. Encryption and decryption are stateful streams so a
// long-lived proxy connection can push data incrementally.
class AesCfbStream {
 public:
  AesCfbStream(const Aes256& cipher, ByteView iv) noexcept;
  AesCfbStream(ByteView key, ByteView iv) noexcept;

  Bytes encrypt(ByteView plaintext);
  Bytes decrypt(ByteView ciphertext);

  // In-place variants over any span, such as a frame's payload inside the
  // buffer that carries its header: CFB is a stream mode, so ciphertext can
  // overwrite plaintext byte by byte. The VPN encap/decap paths and the TLS
  // record layer use these to keep one buffer per frame.
  void encryptInPlace(std::span<std::uint8_t> data) noexcept;
  void decryptInPlace(std::span<std::uint8_t> data) noexcept;
  // Into `out`, which holds in.size() bytes and does not overlap `in`.
  void encryptInto(ByteView in, std::uint8_t* out) noexcept;
  void decryptInto(ByteView in, std::uint8_t* out) noexcept;

  // The expanded key, so a stream for the other direction can start from
  // it without running the key schedule again.
  const Aes256& cipher() const noexcept { return cipher_; }

 private:
  // `in` and `out` may alias exactly.
  template <bool kDecrypt>
  void transform(const std::uint8_t* in, std::uint8_t* out,
                 std::size_t n) noexcept;

  Aes256 cipher_;
  std::uint8_t feedback_[16];
  std::uint8_t keystream_[16];
  std::size_t used_ = kAesBlockSize;  // forces keystream refill on first byte
};

// One-shot helpers (fresh stream per call). They take an expanded key so
// per-packet callers run the key schedule once per session, not per packet.
Bytes aes256CfbEncrypt(const Aes256& cipher, ByteView iv, ByteView plaintext);
Bytes aes256CfbDecrypt(const Aes256& cipher, ByteView iv, ByteView ciphertext);
void aes256CfbEncryptInPlace(const Aes256& cipher, ByteView iv, Bytes& data);
void aes256CfbDecryptInPlace(const Aes256& cipher, ByteView iv, Bytes& data);

}  // namespace sc::crypto
