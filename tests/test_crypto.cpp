#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "crypto/entropy.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sc::crypto {
namespace {

// ---- SHA-256 (FIPS 180-4 vectors) ----

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(toHex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(toHex(sha256(toBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      toHex(sha256(toBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(toHex(ByteView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = toBytes("The quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i)
    h.update(ByteView(data.data() + i, 1));
  const auto digest = h.finish();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), sha256(data));
}

// Random split points: every way of cutting a message into update() calls,
// including empty and block-straddling pieces, gives the one-shot digest.
TEST(Sha256, IncrementalMatchesOneShotAtRandomSplits) {
  std::uint64_t x = 180;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % bound;
  };
  for (int trial = 0; trial < 500; ++trial) {
    Bytes data(next(300));
    for (auto& b : data) b = static_cast<std::uint8_t>(next(256));
    Sha256 h;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min<std::size_t>(next(80), data.size() - off);
      h.update(ByteView(data.data() + off, n));
      off += n;
    }
    const auto digest = h.finish();
    ASSERT_EQ(Bytes(digest.begin(), digest.end()), sha256(data))
        << "trial " << trial << " size " << data.size();
  }
}

// FIPS 180-4 padding written out here, so a compression function can be
// checked on its own against the published vectors.
using ProcessBlocks = void (*)(std::uint32_t*, const std::uint8_t*,
                               std::size_t);
std::string digestWith(ProcessBlocks process, const Bytes& message) {
  Bytes padded = message;
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != kSha256BlockSize - 8)
    padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::array<std::uint32_t, 8> state = kSha256InitialState;
  process(state.data(), padded.data(), padded.size() / kSha256BlockSize);
  Bytes out;
  for (const std::uint32_t word : state) appendU32(out, word);
  return toHex(out);
}

TEST(Sha256, Fips180VectorsThroughDispatchedAndReferenceRounds) {
  const std::pair<Bytes, const char*> vectors[] = {
      {toBytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {toBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [message, expected] : vectors) {
    EXPECT_EQ(digestWith(&Sha256::processBlocks, message), expected);
    EXPECT_EQ(digestWith(&Sha256::processBlocksReference, message), expected);
  }
}

// finish() against the padding spelled out above, at every length around
// the one- and two-block boundaries (55 and 56 bytes leave no room for the
// bit count after the 0x80).
TEST(Sha256, FinishPadsLikeFips180AtEveryLength) {
  Bytes message;
  for (std::size_t n = 0; n <= 200; ++n) {
    ASSERT_EQ(toHex(sha256(message)),
              digestWith(&Sha256::processBlocksReference, message))
        << "length " << n;
    message.push_back(static_cast<std::uint8_t>(n * 31 + 7));
  }
}

// The dispatched compression (SHA-NI where the CPU has it) must equal the
// portable rounds from any chaining state, over one block and over runs.
TEST(Sha256, HardwareRoundsMatchReference) {
  if (!Sha256::hardwareAccelerated()) GTEST_SKIP() << "CPU lacks SHA-NI";
  std::uint64_t x = 20171211;
  const auto nextWord = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(x >> 32);
  };
  for (int i = 0; i < 10000; ++i) {
    const std::size_t blocks = i % 10 == 0 ? 3 : 1;
    std::uint32_t expected[8], actual[8];
    for (int j = 0; j < 8; ++j) expected[j] = actual[j] = nextWord();
    Bytes data(blocks * kSha256BlockSize);
    for (std::size_t j = 0; j < data.size(); j += 4) {
      const std::uint32_t w = nextWord();
      std::memcpy(data.data() + j, &w, 4);
    }
    Sha256::processBlocksReference(expected, data.data(), blocks);
    Sha256::processBlocks(actual, data.data(), blocks);
    ASSERT_TRUE(std::equal(expected, expected + 8, actual)) << "pair " << i;
  }
}

// ---- HMAC-SHA256 (RFC 4231 vectors) ----

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(toHex(hmacSha256(key, toBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      toHex(hmacSha256(toBytes("Jefe"),
                       toBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(toHex(hmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(toHex(hmacSha256(key, toBytes("Test Using Larger Than Block-Size "
                                          "Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DeriveKey, DeterministicAndLabelSeparated) {
  const Bytes secret = toBytes("secret");
  EXPECT_EQ(deriveKey(secret, "label-a", 32), deriveKey(secret, "label-a", 32));
  EXPECT_NE(deriveKey(secret, "label-a", 32), deriveKey(secret, "label-b", 32));
  EXPECT_EQ(deriveKey(secret, "x", 100).size(), 100u);
  // Prefix property: a longer derivation starts with the shorter one.
  const Bytes long_key = deriveKey(secret, "x", 64);
  const Bytes short_key = deriveKey(secret, "x", 32);
  EXPECT_TRUE(std::equal(short_key.begin(), short_key.end(), long_key.begin()));
}

// Pinned outputs of the 1024-byte derivation BlindingCodec runs per table
// build (32 chained HMACs), with a short and a longer-than-block secret.
// Computed with the straightforward two-HMAC-per-block implementation; the
// keyed-midstate one must reproduce them byte for byte.
TEST(DeriveKey, GoldenKiloByteDerivation) {
  const Bytes blinding = deriveKey(toBytes("blinding-secret"), "blind-epoch-7", 1024);
  ASSERT_EQ(blinding.size(), 1024u);
  EXPECT_EQ(toHex(ByteView(blinding.data(), 40)),
            "a40671f18568512103e820fc9fc15529174f3bc6a904d42bff9b32a6f54cfa3c"
            "69308623717e5e59");
  EXPECT_EQ(toHex(sha256(blinding)),
            "bf0d62657794a102c5a58226c54124210dc05ee4a4034c7de0f8eefca728bc8d");
  EXPECT_EQ(toHex(sha256(deriveKey(Bytes(100, 0x5c), "x", 1024))),
            "5b5dd1dc41ae2d4af5d183962eb60a24a99fbaa0aaf7c891b2584cec379e936c");
}

// The three TLS session-key labels over one 64-byte client||server random
// secret, as TlsStream::deriveSessionKeys takes them. Pinned at the
// one-HMAC-key-per-label implementation; one KeyedHmac over the secret
// must give the same bytes.
TEST(DeriveKey, GoldenTlsSessionLabels) {
  Bytes secret(64);
  for (std::size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const KeyedHmac keys(secret);
  EXPECT_EQ(toHex(keys.derive("tls-master", 32)),
            "a7231d8790eae7b2490f2ae77e6ea57e69997153ffa7aa19597e6fa90e547130");
  EXPECT_EQ(toHex(keys.derive("tls-iv-c2s", 16)),
            "abd8a5832465dc39e76427d04a0ecfd2");
  EXPECT_EQ(toHex(keys.derive("tls-iv-s2c", 16)),
            "db878a36c7e1129b20655606093ce495");
  EXPECT_EQ(deriveKey(secret, "tls-iv-c2s", 16), keys.derive("tls-iv-c2s", 16));
}

// The block counter is one byte: a 256th block would reuse the first
// block's HMAC input, so derive refuses more than 255 blocks.
TEST(DeriveKey, RejectsMoreThan255Blocks) {
  const KeyedHmac keys(toBytes("secret"));
  const Bytes longest = keys.derive("x", KeyedHmac::kMaxDerive);
  ASSERT_EQ(longest.size(), 8160u);
  EXPECT_EQ(Bytes(longest.begin(), longest.begin() + 32), keys.derive("x", 32));
  EXPECT_TRUE(keys.derive("x", KeyedHmac::kMaxDerive + 1).empty());
  EXPECT_TRUE(deriveKey(toBytes("secret"), "x", 1u << 20).empty());
}

// ---- AES-256 (FIPS 197 / NIST SP 800-38A vectors) ----

TEST(Aes256, Fips197AppendixC3) {
  const Bytes key = fromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes plain = fromHex("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  std::uint8_t out[16];
  aes.encryptBlock(plain.data(), out);
  EXPECT_EQ(toHex(ByteView(out, 16)), "8ea2b7ca516745bfeafc49904b496089");
  aes.encryptBlockReference(plain.data(), out);
  EXPECT_EQ(toHex(ByteView(out, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

// The dispatched block function (AES-NI where the CPU has it) must equal the
// byte-wise reference on every key and block, in place included.
TEST(Aes256, HardwareRoundsMatchReference) {
  if (!Aes256::hardwareAccelerated()) GTEST_SKIP() << "CPU lacks AES-NI";
  std::uint64_t x = 20170;
  const auto randomBytes = [&x](std::size_t n) {
    Bytes out(n);
    for (auto& b : out) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(x >> 56);
    }
    return out;
  };
  for (int i = 0; i < 10000; ++i) {
    const Aes256 aes(randomBytes(kAes256KeySize));
    Bytes block = randomBytes(kAesBlockSize);
    std::uint8_t expected[16];
    aes.encryptBlockReference(block.data(), expected);
    aes.encryptBlock(block.data(), block.data());
    ASSERT_EQ(Bytes(expected, expected + 16), block) << "pair " << i;
  }
}

TEST(Aes256, NistSp80038aCfb128FirstSegment) {
  const Bytes key = fromHex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes iv = fromHex("000102030405060708090a0b0c0d0e0f");
  const Bytes plain = fromHex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(toHex(aes256CfbEncrypt(Aes256(key), iv, plain)),
            "dc7e84bfda79164b7ecd8486985d3860");
}

TEST(AesCfb, RoundTripsArbitraryLengths) {
  const Bytes key(32, 0x42);
  const Bytes iv(16, 0x24);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{100}, std::size_t{4096}}) {
    Bytes plain(n);
    for (std::size_t i = 0; i < n; ++i)
      plain[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(aes256CfbDecrypt(Aes256(key), iv,
                               aes256CfbEncrypt(Aes256(key), iv, plain)),
              plain)
        << "n=" << n;
  }
}

TEST(AesCfb, StreamingMatchesOneShot) {
  const Bytes key(32, 7);
  const Bytes iv(16, 9);
  Bytes plain(300);
  for (std::size_t i = 0; i < plain.size(); ++i)
    plain[i] = static_cast<std::uint8_t>(i * 13);

  AesCfbStream enc(key, iv);
  Bytes streamed;
  for (std::size_t off = 0; off < plain.size(); off += 37) {
    const std::size_t n = std::min<std::size_t>(37, plain.size() - off);
    appendBytes(streamed, enc.encrypt(ByteView(plain.data() + off, n)));
  }
  EXPECT_EQ(streamed, aes256CfbEncrypt(Aes256(key), iv, plain));
}

TEST(AesCfb, CiphertextOfConstantInputIsHighEntropy) {
  const Bytes ct =
      aes256CfbEncrypt(Aes256(Bytes(32, 1)), Bytes(16, 2), Bytes(8192, 'A'));
  EXPECT_GT(shannonEntropy(ct), 7.5);
}

TEST(AesCfb, DifferentIvsDifferentCiphertext) {
  const Bytes plain = toBytes("same plaintext");
  EXPECT_NE(aes256CfbEncrypt(Aes256(Bytes(32, 1)), Bytes(16, 1), plain),
            aes256CfbEncrypt(Aes256(Bytes(32, 1)), Bytes(16, 2), plain));
}

// ---- Blinding: the paper's f : [0,2^8) -> [0,2^8) byte mapping ----

TEST(Blinding, ByteMapRoundTrips) {
  BlindingCodec codec(toBytes("operator-secret"));
  Bytes data(999);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);
  EXPECT_EQ(codec.unblind(codec.blind(data)), data);
}

TEST(Blinding, ByteMapIsAPermutation) {
  BlindingCodec codec(toBytes("operator-secret"));
  Bytes all(256);
  for (int i = 0; i < 256; ++i)
    all[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes mapped = codec.blind(all);
  std::array<bool, 256> seen{};
  for (auto b : mapped) {
    EXPECT_FALSE(seen[b]) << "duplicate output byte";
    seen[b] = true;
  }
}

TEST(Blinding, MappingActuallyChangesProtocolBytes) {
  BlindingCodec codec(toBytes("operator-secret"));
  const Bytes data = toBytes("GET / HTTP/1.1");
  EXPECT_NE(codec.blind(data), data);
}

TEST(Blinding, EpochsAreIndependentButConsistentAcrossEndpoints) {
  const Bytes secret = toBytes("operator-secret");
  BlindingCodec e0(secret, 0), e1(secret, 1), e1_peer(secret, 1);
  const Bytes data = toBytes("some tunnel frame");
  EXPECT_NE(e0.blind(data), e1.blind(data));
  EXPECT_EQ(e1_peer.unblind(e1.blind(data)), data);
}

TEST(Blinding, RotateReKeysInPlace) {
  BlindingCodec codec(toBytes("operator-secret"), 0);
  const Bytes data = toBytes("payload");
  const Bytes before = codec.blind(data);
  codec.rotate(7);
  EXPECT_EQ(codec.epoch(), 7u);
  EXPECT_NE(codec.blind(data), before);
  EXPECT_EQ(codec.unblind(codec.blind(data)), data);
}

TEST(Blinding, DifferentSecretsDifferentMappings) {
  const Bytes data = toBytes("frame");
  EXPECT_NE(BlindingCodec(toBytes("secret-a")).blind(data),
            BlindingCodec(toBytes("secret-b")).blind(data));
}

TEST(Blinding, PrintableModeLooksLikeTextAndRoundTrips) {
  BlindingCodec codec(toBytes("s"), 0, BlindingMode::kPrintable);
  Bytes random(4096);
  std::uint32_t x = 99;
  for (auto& b : random) {
    x = x * 1664525 + 1013904223;
    b = static_cast<std::uint8_t>(x >> 16);
  }
  const Bytes blinded = codec.blind(random);
  EXPECT_GT(printableFraction(blinded), 0.99);
  EXPECT_LT(shannonEntropy(blinded), 6.5);
  EXPECT_EQ(codec.unblind(blinded), random);
}

TEST(Blinding, PrintableModeRoundTripsAllRemainders) {
  BlindingCodec codec(toBytes("s"), 3, BlindingMode::kPrintable);
  for (std::size_t n = 0; n <= 10; ++n) {
    Bytes data;
    for (std::size_t i = 0; i < n; ++i)
      data.push_back(static_cast<std::uint8_t>(200 + i));
    EXPECT_EQ(codec.unblind(codec.blind(data)), data) << "n=" << n;
  }
}

TEST(Blinding, ExpansionFactors) {
  EXPECT_DOUBLE_EQ(BlindingCodec(toBytes("s")).expansionFactor(), 1.0);
  EXPECT_GT(BlindingCodec(toBytes("s"), 0, BlindingMode::kPrintable)
                .expansionFactor(),
            1.3);
}

// ---- entropy utilities (what the GFW's DPI computes) ----

TEST(Entropy, KnownValues) {
  EXPECT_DOUBLE_EQ(shannonEntropy(Bytes(100, 0x41)), 0.0);
  Bytes two(100);
  for (std::size_t i = 0; i < two.size(); ++i)
    two[i] = i % 2 ? 0x41 : 0x42;
  EXPECT_NEAR(shannonEntropy(two), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(shannonEntropy({}), 0.0);
}

TEST(Entropy, PrintableFraction) {
  EXPECT_DOUBLE_EQ(printableFraction(toBytes("hello")), 1.0);
  EXPECT_DOUBLE_EQ(printableFraction(Bytes{0x00, 0x01, 0x02, 0x03}), 0.0);
  EXPECT_NEAR(printableFraction(Bytes{'a', 0x00}), 0.5, 1e-9);
}

TEST(Entropy, ChiSquaredSeparatesTextFromCiphertext) {
  Bytes text;
  while (text.size() < 4096)
    appendBytes(text, toBytes("the quick brown fox "));
  const Bytes random =
      aes256CfbEncrypt(Aes256(Bytes(32, 3)), Bytes(16, 4), Bytes(4096, 0));
  EXPECT_GT(chiSquaredUniform(text), 10.0 * chiSquaredUniform(random));
}

}  // namespace
}  // namespace sc::crypto
