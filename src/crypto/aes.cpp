#include "crypto/aes.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <wmmintrin.h>
#define SC_AES_NI 1
#else
#define SC_AES_NI 0
#endif

namespace sc::crypto {

namespace {
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c,
                                    0xd8, 0xab, 0x4d};

std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

#if SC_AES_NI
// The round keys are already in the byte order aesenc takes, so the
// hardware rounds read the same schedule as the reference.
__attribute__((target("aes"))) void encryptBlockAesNi(
    const std::uint8_t* round_keys, const std::uint8_t in[16],
    std::uint8_t out[16]) noexcept {
  const auto key = [round_keys](int round) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * round));
  };
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), key(0));
  for (int round = 1; round < 14; ++round) s = _mm_aesenc_si128(s, key(round));
  s = _mm_aesenclast_si128(s, key(14));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}
#endif
}  // namespace

Aes256::Aes256(ByteView key) noexcept {
  std::uint8_t k[kAes256KeySize] = {};
  std::memcpy(k, key.data(), std::min(key.size(), kAes256KeySize));

  // Key expansion: 60 words for AES-256.
  constexpr int kNk = 8;
  constexpr int kNw = 60;
  std::uint8_t w[kNw][4];
  for (int i = 0; i < kNk; ++i)
    for (int j = 0; j < 4; ++j) w[i][j] = k[4 * i + j];
  for (int i = kNk; i < kNw; ++i) {
    std::uint8_t temp[4] = {w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]};
    if (i % kNk == 0) {
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / kNk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (i % kNk == 4) {
      for (auto& t : temp) t = kSbox[t];
    }
    for (int j = 0; j < 4; ++j)
      w[i][j] = static_cast<std::uint8_t>(w[i - kNk][j] ^ temp[j]);
  }
  for (int i = 0; i < kNw; ++i)
    for (int j = 0; j < 4; ++j) round_keys_[4 * static_cast<std::size_t>(i) + static_cast<std::size_t>(j)] = w[i][j];
}

void Aes256::encryptBlockReference(const std::uint8_t in[16],
                                   std::uint8_t out[16]) const noexcept {
  constexpr int kRounds = 14;
  std::uint8_t s[16];
  // State is column-major per FIPS 197; we keep a flat array where
  // s[4*c + r] is row r, column c — matching the round-key layout above.
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[static_cast<std::size_t>(i)];

  for (int round = 1; round <= kRounds; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (rows are s[c*4 + r] for r fixed)
    std::uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    // MixColumns (skipped in final round)
    if (round != kRounds) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = &s[4 * c];
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
        col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
        col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
        col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
        col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
      }
    }
    // AddRoundKey
    for (int i = 0; i < 16; ++i)
      s[i] ^= round_keys_[static_cast<std::size_t>(16 * round + i)];
  }
  std::memcpy(out, s, 16);
}

bool Aes256::hardwareAccelerated() noexcept {
#if SC_AES_NI
  static const bool has_aes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
  }();
  return has_aes;
#else
  return false;
#endif
}

void Aes256::encryptBlock(const std::uint8_t in[16],
                          std::uint8_t out[16]) const noexcept {
#if SC_AES_NI
  if (hardwareAccelerated()) {
    encryptBlockAesNi(round_keys_.data(), in, out);
    return;
  }
#endif
  encryptBlockReference(in, out);
}

AesCfbStream::AesCfbStream(const Aes256& cipher, ByteView iv) noexcept
    : cipher_(cipher) {
  std::memset(feedback_, 0, sizeof(feedback_));
  std::memcpy(feedback_, iv.data(), std::min(iv.size(), kAesBlockSize));
  std::memset(keystream_, 0, sizeof(keystream_));
}

AesCfbStream::AesCfbStream(ByteView key, ByteView iv) noexcept
    : AesCfbStream(Aes256(key), iv) {}

// Ciphertext feeds back: the output byte when encrypting, the input byte
// when decrypting. Each input byte is read before its output is written.
template <bool kDecrypt>
void AesCfbStream::transform(const std::uint8_t* in, std::uint8_t* out,
                             std::size_t n) noexcept {
  std::size_t i = 0;
  // Byte at a time through what is left of the current keystream block.
  const auto drain = [&] {
    for (; i < n && used_ < kAesBlockSize; ++i, ++used_) {
      const std::uint8_t x = in[i];
      out[i] = x ^ keystream_[used_];
      feedback_[used_] = kDecrypt ? x : out[i];
    }
  };
  drain();  // the block an earlier call left part-used
  // Whole blocks; used_ is kAesBlockSize here and stays so.
  for (; n - i >= kAesBlockSize; i += kAesBlockSize) {
    cipher_.encryptBlock(feedback_, keystream_);
    std::uint8_t x[kAesBlockSize];
    std::uint8_t y[kAesBlockSize];
    std::memcpy(x, in + i, kAesBlockSize);
    for (std::size_t j = 0; j < kAesBlockSize; ++j)
      y[j] = static_cast<std::uint8_t>(x[j] ^ keystream_[j]);
    std::memcpy(out + i, y, kAesBlockSize);
    std::memcpy(feedback_, kDecrypt ? x : y, kAesBlockSize);
  }
  // Tail: start a fresh keystream block and leave it part-used.
  if (i < n) {
    cipher_.encryptBlock(feedback_, keystream_);
    used_ = 0;
    drain();
  }
}

Bytes AesCfbStream::encrypt(ByteView plaintext) {
  Bytes out(plaintext.size());
  transform<false>(plaintext.data(), out.data(), plaintext.size());
  return out;
}

Bytes AesCfbStream::decrypt(ByteView ciphertext) {
  Bytes out(ciphertext.size());
  transform<true>(ciphertext.data(), out.data(), ciphertext.size());
  return out;
}

void AesCfbStream::encryptInPlace(Bytes& data) {
  transform<false>(data.data(), data.data(), data.size());
}

void AesCfbStream::decryptInPlace(Bytes& data) {
  transform<true>(data.data(), data.data(), data.size());
}

Bytes aes256CfbEncrypt(const Aes256& cipher, ByteView iv, ByteView plaintext) {
  return AesCfbStream(cipher, iv).encrypt(plaintext);
}

Bytes aes256CfbDecrypt(const Aes256& cipher, ByteView iv,
                       ByteView ciphertext) {
  return AesCfbStream(cipher, iv).decrypt(ciphertext);
}

void aes256CfbEncryptInPlace(const Aes256& cipher, ByteView iv, Bytes& data) {
  AesCfbStream(cipher, iv).encryptInPlace(data);
}

void aes256CfbDecryptInPlace(const Aes256& cipher, ByteView iv, Bytes& data) {
  AesCfbStream(cipher, iv).decryptInPlace(data);
}

}  // namespace sc::crypto
