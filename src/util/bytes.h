// Byte-buffer helpers shared by every layer of the stack.
//
// `Bytes` is the universal wire-payload type: packets, ciphertexts, HTTP
// bodies and blinded tunnel frames are all `Bytes`. Helpers here convert
// to/from strings and hex, and provide the little-endian integer packing
// used by the framed protocols (Shadowsocks, ScholarCloud tunnel, Tor cells).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sc {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

// Conversions between text and bytes. Lossless for arbitrary binary data.
Bytes toBytes(std::string_view s);
std::string toString(ByteView b);

// Zero-copy reinterpretation of a byte span as text. The view aliases the
// underlying buffer — valid only while that buffer lives.
inline std::string_view asStringView(ByteView b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// The reverse view: text as bytes, aliasing the string's buffer.
inline ByteView asBytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Hex encoding, lowercase. decodeHex returns empty on malformed input.
std::string toHex(ByteView b);
Bytes fromHex(std::string_view hex);

// Append helpers used by protocol encoders.
void appendBytes(Bytes& out, ByteView more);
void appendU8(Bytes& out, std::uint8_t v);
void appendU16(Bytes& out, std::uint16_t v);   // big-endian (network order)
void appendU32(Bytes& out, std::uint32_t v);   // big-endian
void appendU64(Bytes& out, std::uint64_t v);   // big-endian

// Write helpers for a frame sized up front (one allocation per frame):
// `off` advances past the written bytes, which `out` must have room for.
inline void writeU8(std::span<std::uint8_t> out, std::size_t& off,
                    std::uint8_t v) noexcept {
  out[off++] = v;
}
inline void writeU16(std::span<std::uint8_t> out, std::size_t& off,
                     std::uint16_t v) noexcept {  // big-endian
  out[off++] = static_cast<std::uint8_t>(v >> 8);
  out[off++] = static_cast<std::uint8_t>(v);
}
inline void writeU32(std::span<std::uint8_t> out, std::size_t& off,
                     std::uint32_t v) noexcept {  // big-endian
  writeU16(out, off, static_cast<std::uint16_t>(v >> 16));
  writeU16(out, off, static_cast<std::uint16_t>(v));
}

// Read helpers; `off` advances past the consumed bytes. Return false when
// the buffer is too short (decoder signals malformed frame to its caller).
bool readU8(ByteView in, std::size_t& off, std::uint8_t& v);
bool readU16(ByteView in, std::size_t& off, std::uint16_t& v);
bool readU32(ByteView in, std::size_t& off, std::uint32_t& v);
bool readU64(ByteView in, std::size_t& off, std::uint64_t& v);
bool readBytes(ByteView in, std::size_t& off, std::size_t n, Bytes& v);

// Constant-time comparison for authentication tags.
bool ctEqual(ByteView a, ByteView b);

}  // namespace sc
