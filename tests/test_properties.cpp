// Property-style parameterized sweeps over the codecs and invariants that
// everything else leans on: blinding, AES-CFB, Tor cells, the HTTP parser
// and the tunnel framing — exercised across sizes, seeds and chunkings.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/blinding.h"
#include "crypto/entropy.h"
#include "http/message.h"
#include "sim/rng.h"
#include "tor/cell.h"

namespace sc {
namespace {

Bytes pseudoRandom(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return rng.randomBytes(n);
}

// ---- blinding round trip across modes / epochs / sizes ----

struct BlindingCase {
  crypto::BlindingMode mode;
  std::uint32_t epoch;
  std::size_t size;
};

// Names the case by its fields: gtest's default printer dumps the struct's
// raw bytes, padding included, so test names would change from run to run.
void PrintTo(const BlindingCase& c, std::ostream* os) {
  *os << (c.mode == crypto::BlindingMode::kByteMap ? "ByteMap" : "Printable")
      << " epoch=" << c.epoch << " size=" << c.size;
}

class BlindingProperty : public ::testing::TestWithParam<BlindingCase> {};

TEST_P(BlindingProperty, RoundTripsAndChangesBytes) {
  const auto param = GetParam();
  crypto::BlindingCodec codec(toBytes("property-secret"), param.epoch,
                              param.mode);
  const Bytes data = pseudoRandom(param.size, param.size * 31 + param.epoch);
  const Bytes blinded = codec.blind(data);
  EXPECT_EQ(codec.unblind(blinded), data);
  if (param.size >= 16) {
    EXPECT_NE(blinded, data);
  }
  if (param.mode == crypto::BlindingMode::kByteMap) {
    EXPECT_EQ(blinded.size(), data.size());
  } else {
    EXPECT_GE(blinded.size(), data.size() * 4 / 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlindingProperty,
    ::testing::Values(
        BlindingCase{crypto::BlindingMode::kByteMap, 0, 0},
        BlindingCase{crypto::BlindingMode::kByteMap, 0, 1},
        BlindingCase{crypto::BlindingMode::kByteMap, 1, 17},
        BlindingCase{crypto::BlindingMode::kByteMap, 2, 256},
        BlindingCase{crypto::BlindingMode::kByteMap, 3, 1400},
        BlindingCase{crypto::BlindingMode::kByteMap, 100, 65536},
        BlindingCase{crypto::BlindingMode::kPrintable, 0, 0},
        BlindingCase{crypto::BlindingMode::kPrintable, 0, 1},
        BlindingCase{crypto::BlindingMode::kPrintable, 1, 2},
        BlindingCase{crypto::BlindingMode::kPrintable, 2, 3},
        BlindingCase{crypto::BlindingMode::kPrintable, 3, 1399},
        BlindingCase{crypto::BlindingMode::kPrintable, 9, 4096}));

// ---- AES-CFB chunked streaming equivalence ----

class AesChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesChunking, ChunkedEncryptionMatchesOneShot) {
  const std::size_t chunk = GetParam();
  const Bytes key = pseudoRandom(32, 1);
  const Bytes iv = pseudoRandom(16, 2);
  const Bytes plain = pseudoRandom(10000, 3);

  crypto::AesCfbStream enc(key, iv);
  Bytes streamed;
  for (std::size_t off = 0; off < plain.size(); off += chunk) {
    const std::size_t n = std::min(chunk, plain.size() - off);
    appendBytes(streamed, enc.encrypt(ByteView(plain.data() + off, n)));
  }
  EXPECT_EQ(streamed, crypto::aes256CfbEncrypt(crypto::Aes256(key), iv, plain));

  crypto::AesCfbStream dec(key, iv);
  Bytes recovered;
  for (std::size_t off = 0; off < streamed.size(); off += chunk) {
    const std::size_t n = std::min(chunk, streamed.size() - off);
    appendBytes(recovered, dec.decrypt(ByteView(streamed.data() + off, n)));
  }
  EXPECT_EQ(recovered, plain);
}

// The in-place variants carry a part-used keystream block across calls the
// same way, whether a chunk ends mid-block or on a block boundary.
TEST_P(AesChunking, ChunkedInPlaceMatchesOneShot) {
  const std::size_t chunk = GetParam();
  const Bytes key = pseudoRandom(32, 1);
  const Bytes iv = pseudoRandom(16, 2);
  const Bytes plain = pseudoRandom(10000, 3);

  crypto::AesCfbStream enc(key, iv);
  crypto::AesCfbStream dec(key, iv);
  Bytes streamed;
  Bytes recovered;
  for (std::size_t off = 0; off < plain.size(); off += chunk) {
    const std::size_t n = std::min(chunk, plain.size() - off);
    Bytes piece(plain.begin() + static_cast<std::ptrdiff_t>(off),
                plain.begin() + static_cast<std::ptrdiff_t>(off + n));
    enc.encryptInPlace(piece);
    appendBytes(streamed, piece);
    dec.decryptInPlace(piece);
    appendBytes(recovered, piece);
  }
  EXPECT_EQ(streamed, crypto::aes256CfbEncrypt(crypto::Aes256(key), iv, plain));
  EXPECT_EQ(recovered, plain);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AesChunking,
                         ::testing::Values(1, 2, 3, 7, 15, 16, 17, 64, 333,
                                           1400, 9999));

// ---- Tor cell reader vs arbitrary chunk boundaries ----

class CellChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CellChunking, ReaderIsChunkingInvariant) {
  const std::size_t chunk = GetParam();
  Bytes wire;
  constexpr int kCells = 9;
  for (int i = 0; i < kCells; ++i) {
    tor::Cell cell;
    cell.circ_id = static_cast<std::uint32_t>(i);
    cell.cmd = tor::CellCommand::kRelay;
    cell.payload = pseudoRandom(static_cast<std::size_t>(i * 50),
                                static_cast<std::uint64_t>(i));
    appendBytes(wire, tor::encodeCell(cell));
  }
  tor::CellReader reader;
  std::vector<tor::Cell> got;
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t n = std::min(chunk, wire.size() - off);
    for (auto& c : reader.feed(ByteView(wire.data() + off, n)))
      got.push_back(std::move(c));
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCells));
  for (int i = 0; i < kCells; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].circ_id,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i)].payload.size(),
              static_cast<std::size_t>(i * 50));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CellChunking,
                         ::testing::Values(1, 13, 100, 513, 514, 515, 1028,
                                           5000));

// ---- HTTP parser vs chunking and body sizes ----

struct HttpCase {
  std::size_t body_size;
  std::size_t chunk;
};

class HttpParserProperty : public ::testing::TestWithParam<HttpCase> {};

TEST_P(HttpParserProperty, ParsesRegardlessOfDeliveryPattern) {
  const auto param = GetParam();
  http::Response resp;
  resp.status = 200;
  resp.headers.set("etag", "\"abc\"");
  resp.body = pseudoRandom(param.body_size, param.body_size + 5);
  const Bytes wire = resp.serialize();

  http::ResponseParser parser;
  std::vector<http::Response> got;
  for (std::size_t off = 0; off < wire.size(); off += param.chunk) {
    const std::size_t n = std::min(param.chunk, wire.size() - off);
    for (auto& m : parser.feed(ByteView(wire.data() + off, n)))
      got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(parser.malformed());
  EXPECT_EQ(got[0].body, resp.body);
  EXPECT_EQ(got[0].headers.get("etag").value_or(""), "\"abc\"");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HttpParserProperty,
    ::testing::Values(HttpCase{0, 1}, HttpCase{0, 1000}, HttpCase{1, 1},
                      HttpCase{100, 7}, HttpCase{1400, 3}, HttpCase{8192, 1400},
                      HttpCase{65536, 1000}));

// ---- blinding statistical properties per epoch ----

class BlindingEntropy : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BlindingEntropy, ByteMapPreservesAndPrintableLowersEntropy) {
  const std::uint32_t epoch = GetParam();
  const Bytes random = pseudoRandom(8192, epoch + 77);
  crypto::BlindingCodec bytemap(toBytes("s"), epoch,
                                crypto::BlindingMode::kByteMap);
  crypto::BlindingCodec printable(toBytes("s"), epoch,
                                  crypto::BlindingMode::kPrintable);
  EXPECT_GT(crypto::shannonEntropy(bytemap.blind(random)), 7.5);
  const Bytes text = printable.blind(random);
  EXPECT_LT(crypto::shannonEntropy(text), 6.5);
  EXPECT_GT(crypto::printableFraction(text), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlindingEntropy,
                         ::testing::Values(0u, 1u, 2u, 17u, 9999u));

// ---- sequence-number arithmetic used by TCP ----

TEST(SeqArithmeticProperty, WrapsCorrectly) {
  const std::uint32_t near_max = 0xFFFFFF00u;
  for (std::uint32_t delta = 1; delta < 512; delta *= 3) {
    const std::uint32_t wrapped = near_max + delta;
    EXPECT_TRUE(static_cast<std::int32_t>(wrapped - near_max) > 0)
        << "delta=" << delta;
  }
}

}  // namespace
}  // namespace sc
