#include "tor/cell.h"

#include <algorithm>

namespace sc::tor {

namespace {
constexpr std::size_t kCellHeader = kCellSize - kCellPayloadSize;

// The cell that starts `wire`, which holds at least kCellSize bytes.
Cell decodeCell(ByteView wire) {
  Cell cell;
  std::size_t off = 0;
  std::uint8_t cmd = 0;
  std::uint16_t len = 0;
  readU32(wire, off, cell.circ_id);
  readU8(wire, off, cmd);
  readU16(wire, off, len);
  cell.cmd = static_cast<CellCommand>(cmd);
  if (len > kCellPayloadSize) len = kCellPayloadSize;
  const ByteView payload = wire.subspan(kCellHeader, len);
  cell.payload.assign(payload.begin(), payload.end());
  return cell;
}
}  // namespace

Bytes encodeCell(const Cell& cell) {
  Bytes out(kCellSize);  // zeroed: the fixed-size padding
  std::size_t off = 0;
  writeU32(out, off, cell.circ_id);
  writeU8(out, off, static_cast<std::uint8_t>(cell.cmd));
  writeU16(out, off, static_cast<std::uint16_t>(cell.payload.size()));
  std::copy_n(cell.payload.begin(),
              std::min(cell.payload.size(), kCellPayloadSize),
              out.begin() + kCellHeader);
  return out;
}

std::vector<Cell> CellReader::feed(ByteView data) {
  std::vector<Cell> cells;
  cells.reserve((buffer_.buffered() + data.size()) / kCellSize);
  buffer_.feed(
      data,
      [&cells](ByteView buf) -> std::size_t {
        if (buf.size() < kCellSize) return 0;
        cells.push_back(decodeCell(buf));
        return kCellSize;
      },
      [] { return true; });
  return cells;
}

Bytes encodeRelayPayload(const RelayPayload& relay) {
  Bytes out;
  out.reserve(9 + relay.data.size());
  appendU32(out, kRelayMagic);
  appendU8(out, static_cast<std::uint8_t>(relay.cmd));
  appendU16(out, relay.stream_id);
  appendU16(out, static_cast<std::uint16_t>(relay.data.size()));
  appendBytes(out, relay.data);
  return out;
}

std::optional<RelayPayload> decodeRelayPayload(ByteView payload) {
  std::size_t off = 0;
  std::uint32_t magic = 0;
  std::uint8_t cmd = 0;
  RelayPayload relay;
  std::uint16_t len = 0;
  if (!readU32(payload, off, magic) || magic != kRelayMagic) return std::nullopt;
  if (!readU8(payload, off, cmd) || !readU16(payload, off, relay.stream_id) ||
      !readU16(payload, off, len) || !readBytes(payload, off, len, relay.data))
    return std::nullopt;
  relay.cmd = static_cast<RelayCommand>(cmd);
  return relay;
}

}  // namespace sc::tor
