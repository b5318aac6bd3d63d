#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "util/base64.h"
#include "util/bytes.h"
#include "util/frame_buffer.h"
#include "util/hash.h"
#include "util/strings.h"

namespace sc {
namespace {

TEST(Bytes, RoundTripsStrings) {
  const std::string s = "hello \x01\x02 world";
  EXPECT_EQ(toString(toBytes(s)), s);
}

TEST(Bytes, HexEncodesAndDecodes) {
  const Bytes b{0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(toHex(b), "0001abff");
  EXPECT_EQ(fromHex("0001abff"), b);
  EXPECT_EQ(fromHex("0001ABFF"), b);
}

TEST(Bytes, HexRejectsMalformedInput) {
  EXPECT_TRUE(fromHex("abc").empty());   // odd length
  EXPECT_TRUE(fromHex("zz").empty());    // bad digit
}

TEST(Bytes, BigEndianIntegerRoundTrip) {
  Bytes out;
  appendU8(out, 0x12);
  appendU16(out, 0x3456);
  appendU32(out, 0x789ABCDE);
  appendU64(out, 0x0102030405060708ULL);
  EXPECT_EQ(out.size(), 15u);

  std::size_t off = 0;
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  ASSERT_TRUE(readU8(out, off, a));
  ASSERT_TRUE(readU16(out, off, b));
  ASSERT_TRUE(readU32(out, off, c));
  ASSERT_TRUE(readU64(out, off, d));
  EXPECT_EQ(a, 0x12);
  EXPECT_EQ(b, 0x3456);
  EXPECT_EQ(c, 0x789ABCDEu);
  EXPECT_EQ(d, 0x0102030405060708ULL);
  EXPECT_EQ(off, out.size());
}

TEST(Bytes, ReadsFailOnShortBuffers) {
  const Bytes short_buf{0x01};
  std::size_t off = 0;
  std::uint32_t v = 0;
  EXPECT_FALSE(readU32(short_buf, off, v));
  Bytes chunk;
  EXPECT_FALSE(readBytes(short_buf, off, 2, chunk));
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(ctEqual(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ctEqual(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ctEqual(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ctEqual(Bytes{}, Bytes{}));
}

TEST(Base64, Rfc4648Vectors) {
  EXPECT_EQ(base64Encode(toBytes("")), "");
  EXPECT_EQ(base64Encode(toBytes("f")), "Zg==");
  EXPECT_EQ(base64Encode(toBytes("fo")), "Zm8=");
  EXPECT_EQ(base64Encode(toBytes("foo")), "Zm9v");
  EXPECT_EQ(base64Encode(toBytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64Encode(toBytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64Encode(toBytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeInvertsEncode) {
  for (std::size_t n = 0; n < 32; ++n) {
    Bytes data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = static_cast<std::uint8_t>(i * 37 + n);
    EXPECT_EQ(base64Decode(base64Encode(data)), data) << "n=" << n;
  }
}

TEST(Base64, RejectsMalformed) {
  EXPECT_TRUE(base64Decode("abc").empty());      // not multiple of 4
  EXPECT_TRUE(base64Decode("ab=c").empty());     // data after padding
  EXPECT_TRUE(base64Decode("====").empty());     // padding in front
  EXPECT_TRUE(base64Decode("a!cd").empty());     // invalid character
}

TEST(Strings, Split) {
  const auto parts = splitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trimWhitespace("  x \t\r\n"), "x");
  EXPECT_EQ(trimWhitespace(""), "");
  EXPECT_EQ(toLower("HeLLo"), "hello");
  EXPECT_TRUE(iequals("Host", "hOST"));
  EXPECT_FALSE(iequals("Host", "Hosts"));
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(startsWith("scholar.google.com", "scholar"));
  EXPECT_FALSE(startsWith("sch", "scholar"));
  EXPECT_TRUE(endsWith("scholar.google.com", ".google.com"));
  EXPECT_FALSE(endsWith("com", ".google.com"));
}

TEST(Strings, ShExpMatch) {
  EXPECT_TRUE(shExpMatch("scholar.google.com", "*.google.com"));
  EXPECT_TRUE(shExpMatch("abc", "a?c"));
  EXPECT_TRUE(shExpMatch("anything", "*"));
  EXPECT_TRUE(shExpMatch("", "*"));
  EXPECT_FALSE(shExpMatch("scholar.google.cn", "*.google.com"));
  EXPECT_TRUE(shExpMatch("aXbYc", "a*b*c"));
  EXPECT_FALSE(shExpMatch("ab", "a*b*c"));
}

TEST(Strings, DnsDomainIs) {
  EXPECT_TRUE(dnsDomainIs("scholar.google.com", "google.com"));
  EXPECT_TRUE(dnsDomainIs("google.com", "google.com"));
  EXPECT_TRUE(dnsDomainIs("scholar.google.com", ".google.com"));
  EXPECT_FALSE(dnsDomainIs("notgoogle.com", "google.com"));
  EXPECT_FALSE(dnsDomainIs("google.com.evil.org", "google.com"));
  EXPECT_TRUE(dnsDomainIs("SCHOLAR.GOOGLE.COM", "google.com"));
}

// The offset/prime constants themselves are asserted by spelling only the
// *derived* reference vectors here: their literal forms are banned outside
// util/hash.h by the hyg-fnv-magic lint rule, and this file is linted.
TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a(""), kFnv1aOffset);
  EXPECT_EQ(fnv1a("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171F73967E8ULL);
}

TEST(Fnv1a, StreamingMatchesOneShot) {
  Fnv1a h;
  h.add(std::string_view("foo"));
  h.add(std::string_view("bar"));
  EXPECT_EQ(h.value(), fnv1a("foobar"));
}

TEST(Fnv1a, IntegersMixAsLittleEndianBytes) {
  Fnv1a by_value;
  by_value.add(std::uint64_t{0x0102030405060708ULL});
  Fnv1a by_bytes;
  for (int i = 8; i >= 1; --i) by_bytes.addByte(static_cast<std::uint8_t>(i));
  EXPECT_EQ(by_value.value(), by_bytes.value());

  Fnv1a u16;
  u16.add(std::uint16_t{0x0201});
  Fnv1a u16_bytes;
  u16_bytes.addByte(1);
  u16_bytes.addByte(2);
  EXPECT_EQ(u16.value(), u16_bytes.value());
}

TEST(Fnv1a, OrderSensitive) {
  Fnv1a ab;
  ab.add(std::uint64_t{1});
  ab.add(std::uint64_t{2});
  Fnv1a ba;
  ba.add(std::uint64_t{2});
  ba.add(std::uint64_t{1});
  EXPECT_NE(ab.value(), ba.value());
}

TEST(Fnv1a, DoublesDigestByBitPattern) {
  Fnv1a pos;
  pos.add(0.0);
  Fnv1a neg;
  neg.add(-0.0);
  EXPECT_NE(pos.value(), neg.value());  // distinct bit patterns, distinct digests
  Fnv1a a;
  a.add(3.25);
  Fnv1a b;
  b.add(3.25);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Fnv1a, SeedConstructorResumesAStream) {
  Fnv1a whole;
  whole.add(std::string_view("scholar"));
  whole.add(std::uint32_t{42});

  Fnv1a first;
  first.add(std::string_view("scholar"));
  Fnv1a resumed(first.value());
  resumed.add(std::uint32_t{42});
  EXPECT_EQ(resumed.value(), whole.value());
}


// Frames of one length byte and that many payload bytes.
std::size_t readLengthFrame(ByteView buf, std::vector<std::string>& got) {
  if (buf.empty() || buf.size() - 1 < buf[0]) return 0;
  got.push_back(toString(buf.subspan(1, buf[0])));
  return 1 + buf[0];
}

Bytes lengthFrames(std::initializer_list<std::string_view> payloads) {
  Bytes out;
  for (const std::string_view p : payloads) {
    out.push_back(static_cast<std::uint8_t>(p.size()));
    appendBytes(out, toBytes(p));
  }
  return out;
}

TEST(FrameBuffer, ReassemblesFramesSplitAnywhere) {
  const Bytes wire = lengthFrames({"abc", "", "hello", "z"});
  for (std::size_t chunk = 1; chunk <= wire.size(); ++chunk) {
    FrameBuffer frames;
    std::vector<std::string> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk)
      frames.feed(
          ByteView(wire).subspan(off, std::min(chunk, wire.size() - off)),
          [&got](ByteView b) { return readLengthFrame(b, got); },
          [] { return true; });
    EXPECT_EQ(got, (std::vector<std::string>{"abc", "", "hello", "z"}))
        << "chunk " << chunk;
    EXPECT_EQ(frames.buffered(), 0u) << "chunk " << chunk;
  }
}

// A frame's handler that makes the stream below deliver again re-enters
// feed(): those bytes follow the rest of the running delivery, a frame
// split across the two included, and a closed reader reads nothing more.
TEST(FrameBuffer, ReentrantDeliveryIsReadInOrder) {
  const Bytes wire = lengthFrames({"ab", "e", "cd", "x", "f"});
  const ByteView first = ByteView(wire).subspan(0, 6);  // ab, e, cd's length
  const ByteView later = ByteView(wire).subspan(6, 4);  // cd's bytes, x
  const ByteView last = ByteView(wire).subspan(10);     // f
  FrameBuffer frames;
  std::vector<std::string> got;
  bool open = true;
  const auto is_open = [&open] { return open; };
  std::function<std::size_t(ByteView)> read = [&](ByteView b) {
    const std::size_t n = readLengthFrame(b, got);
    if (n != 0 && got.back() == "ab") frames.feed(later, read, is_open);
    if (n != 0 && got.back() == "x") open = false;
    return n;
  };
  frames.feed(first, read, is_open);
  EXPECT_EQ(got, (std::vector<std::string>{"ab", "e", "cd", "x"}));
  open = true;
  frames.feed(last, read, is_open);
  EXPECT_EQ(got.back(), "f");
  EXPECT_EQ(frames.buffered(), 0u);
}
}  // namespace
}  // namespace sc
