// BlindedStream: the message-blinding wire layer between the domestic and
// remote proxies (§3, "Message blinding").
//
// Every write becomes one chunk: [u32 length | u32 epoch | blinded bytes].
// The epoch field is what gives ScholarCloud its agility: because the
// operators control both endpoints, they can rotate the secret byte mapping
// at any time (BlindedStream::rotate), and the receiver keys each chunk's
// un-blinding off the epoch it carries — no drainage or reconnection needed.
// The GFW sees only unclassifiable bytes: byte-map mode preserves the
// ciphertext's high entropy (relying on registered-ICP leniency to pass);
// printable mode re-encodes into a keyed text alphabet that doesn't even
// trip the entropy classifier.
#pragma once

#include <map>
#include <memory>

#include "crypto/blinding.h"
#include "transport/stream.h"
#include "util/frame_buffer.h"

namespace sc::core {

class BlindedStream final : public transport::Stream,
                            public std::enable_shared_from_this<BlindedStream> {
 public:
  using Ptr = std::shared_ptr<BlindedStream>;

  static Ptr wrap(transport::Stream::Ptr inner, Bytes secret,
                  std::uint32_t epoch = 0,
                  crypto::BlindingMode mode = crypto::BlindingMode::kByteMap);

  ~BlindedStream() override;

  void send(Bytes data) override;
  void close() override;
  bool connected() const override {
    return inner_ != nullptr && inner_->connected();
  }

  // Switches the transmit mapping to a new epoch (receive side adapts
  // automatically via the chunk header).
  void rotate(std::uint32_t new_epoch);

  std::uint32_t txEpoch() const noexcept { return tx_epoch_; }
  std::uint64_t chunksSent() const noexcept { return chunks_sent_; }

 private:
  BlindedStream(transport::Stream::Ptr inner, Bytes secret,
                std::uint32_t epoch, crypto::BlindingMode mode);
  void hook();
  void onInner(ByteView data);
  // Unblinds and hands up the chunk at the front of `buf` if it is whole;
  // returns its wire size, or 0 when `buf` holds only part of one.
  std::size_t readChunk(ByteView buf);
  const crypto::BlindingCodec& codecFor(std::uint32_t epoch);

  static constexpr std::size_t kChunkHeader = 8;  // length, epoch

  transport::Stream::Ptr inner_;
  Bytes secret_;
  crypto::BlindingMode mode_;
  std::uint32_t tx_epoch_;
  std::map<std::uint32_t, crypto::BlindingCodec> codecs_;
  FrameBuffer chunks_;
  std::uint64_t chunks_sent_ = 0;
};

}  // namespace sc::core
