// Tor cells: fixed-size 514-byte frames (the real link protocol's cell size)
// carried over TLS between onion-routing nodes, padded so that cell
// boundaries leak nothing about payload sizes.
//
// RELAY cells are onion-encrypted: the client applies one AES-CFB layer per
// hop; each relay peels (or adds, backward) exactly one layer, in place in
// the cell's payload. A peeled relay payload is "recognized" by its leading
// magic — the stand-in for the real protocol's zeroed-digest check.
//
// Buffers: an encoded cell is one 514-byte buffer. CellReader decodes cells
// with a FrameBuffer: in place from the bytes it is fed, buffering only a
// partial cell.
#pragma once

#include <optional>

#include "transport/stream.h"
#include "util/bytes.h"
#include "util/frame_buffer.h"

namespace sc::tor {

constexpr std::size_t kCellSize = 514;
constexpr std::size_t kCellPayloadSize = kCellSize - 7;  // circ(4)+cmd(1)+len(2)
constexpr std::uint32_t kRelayMagic = 0x52435243;        // "RCRC"

enum class CellCommand : std::uint8_t {
  kCreate = 1,
  kCreated = 2,
  kRelay = 3,
  kDestroy = 4,
};

enum class RelayCommand : std::uint8_t {
  kBegin = 1,
  kConnected = 2,
  kData = 3,
  kEnd = 4,
  kExtend = 5,
  kExtended = 6,
};

struct Cell {
  std::uint32_t circ_id = 0;
  CellCommand cmd = CellCommand::kCreate;
  Bytes payload;  // up to kCellPayloadSize (padded on the wire)
};

// Relay payload (plaintext form, before onion layers):
//   magic u32 | relay_cmd u8 | stream_id u16 | len u16 | data
struct RelayPayload {
  RelayCommand cmd = RelayCommand::kData;
  std::uint16_t stream_id = 0;
  Bytes data;
};

Bytes encodeCell(const Cell& cell);

// Incremental cell parser over a byte stream.
class CellReader {
 public:
  // Feeds bytes; returns all complete cells.
  std::vector<Cell> feed(ByteView data);

 private:
  FrameBuffer buffer_;
};

Bytes encodeRelayPayload(const RelayPayload& relay);
// Returns nullopt when the payload is not "recognized" (magic mismatch),
// i.e. more onion layers remain.
std::optional<RelayPayload> decodeRelayPayload(ByteView payload);

// Maximum data bytes per RELAY_DATA cell.
constexpr std::size_t kRelayDataMax = kCellPayloadSize - 9;

}  // namespace sc::tor
