#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SC_SHA_NI 1
#else
#define SC_SHA_NI 0
#endif

namespace sc::crypto {

namespace {
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#if SC_SHA_NI
// sha256rnds2 keeps the state as two registers, ABEF and CDGH, rather than
// the FIPS order A..H; the state is repacked on entry and exit. Each of the
// 16 steps runs four rounds (two rnds2) on four schedule words, and the
// msg1/msg2 pair extends the schedule four words at a time, three steps
// ahead of the rounds that consume them.
__attribute__((target("sha,sse4.1"))) void processBlocksShaNi(
    std::uint32_t state[8], const std::uint8_t* data,
    std::size_t blocks) noexcept {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i wk = _mm_add_epi32(
          w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g & 3], w[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) {
        __m128i& prev = w[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, w[g & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif
}  // namespace

void Sha256::processBlocksReference(std::uint32_t state[8],
                                    const std::uint8_t* data,
                                    std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = std::uint32_t{data[4 * i]} << 24 |
             std::uint32_t{data[4 * i + 1]} << 16 |
             std::uint32_t{data[4 * i + 2]} << 8 | data[4 * i + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool Sha256::hardwareAccelerated() noexcept {
#if SC_SHA_NI
  static const bool has_sha = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
  }();
  return has_sha;
#else
  return false;
#endif
}

void Sha256::processBlocks(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t blocks) noexcept {
#if SC_SHA_NI
  if (hardwareAccelerated()) {
    processBlocksShaNi(state, data, blocks);
    return;
  }
#endif
  processBlocksReference(state, data, blocks);
}

void Sha256::update(ByteView data) noexcept {
  if (data.empty()) return;
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, kSha256BlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < kSha256BlockSize) return;
    processBlocks(h_.data(), buffer_, 1);
    buffered_ = 0;
  }
  const std::size_t blocks = n / kSha256BlockSize;
  if (blocks > 0) processBlocks(h_.data(), p, blocks);
  buffered_ = n - blocks * kSha256BlockSize;
  if (buffered_ > 0)
    std::memcpy(buffer_, p + blocks * kSha256BlockSize, buffered_);
}

std::array<std::uint8_t, kSha256DigestSize> Sha256::finish() noexcept {
  // The 0x80 terminator, zeros, and the 64-bit big-endian bit count end the
  // last block; one more block is needed when the count does not fit.
  constexpr std::size_t kLengthAt = kSha256BlockSize - 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kLengthAt) {
    std::memset(buffer_ + buffered_, 0, kSha256BlockSize - buffered_);
    processBlocks(h_.data(), buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, kLengthAt - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[kLengthAt + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  processBlocks(h_.data(), buffer_, 1);

  std::array<std::uint8_t, kSha256DigestSize> out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Bytes sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  const auto d = h.finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace sc::crypto
