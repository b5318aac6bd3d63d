#include "core/blinded_stream.h"

namespace sc::core {

BlindedStream::BlindedStream(transport::Stream::Ptr inner, Bytes secret,
                             std::uint32_t epoch, crypto::BlindingMode mode)
    : inner_(std::move(inner)),
      secret_(std::move(secret)),
      mode_(mode),
      tx_epoch_(epoch) {
  codecs_.emplace(epoch, crypto::BlindingCodec(secret_, epoch, mode_));
}

BlindedStream::Ptr BlindedStream::wrap(transport::Stream::Ptr inner,
                                       Bytes secret, std::uint32_t epoch,
                                       crypto::BlindingMode mode) {
  auto s = Ptr(new BlindedStream(std::move(inner), std::move(secret), epoch,
                                 mode));
  s->hook();
  return s;
}

BlindedStream::~BlindedStream() {
  if (inner_ != nullptr) {
    inner_->setOnData(nullptr);
    inner_->setOnClose(nullptr);
  }
}

// The inner stream's handlers hold only `this`: we own the inner stream and
// clear them in the destructor.
void BlindedStream::hook() {
  inner_->setOnData([this](ByteView data) {
    const Ptr keep = shared_from_this();  // onInner reads inner_ afterwards
    onInner(data);
  });
  inner_->setOnClose([this] {
    const Ptr keep = shared_from_this();  // the close may drop our owner
    inner_ = nullptr;
    emitClose();
  });
}

const crypto::BlindingCodec& BlindedStream::codecFor(std::uint32_t epoch) {
  const auto it = codecs_.find(epoch);
  if (it != codecs_.end()) return it->second;
  return codecs_.emplace(epoch, crypto::BlindingCodec(secret_, epoch, mode_))
      .first->second;
}

void BlindedStream::rotate(std::uint32_t new_epoch) {
  tx_epoch_ = new_epoch;
  codecFor(new_epoch);
}

void BlindedStream::send(Bytes data) {
  if (inner_ == nullptr) return;
  const crypto::BlindingCodec& codec = codecFor(tx_epoch_);
  const std::size_t len = codec.blindedSize(data.size());
  Bytes chunk(kChunkHeader + len);
  std::size_t off = 0;
  writeU32(chunk, off, static_cast<std::uint32_t>(len));
  writeU32(chunk, off, tx_epoch_);
  codec.blindInto(data, chunk.data() + kChunkHeader);
  ++chunks_sent_;
  inner_->send(std::move(chunk));
}

std::size_t BlindedStream::readChunk(ByteView buf) {
  std::size_t off = 0;
  std::uint32_t len = 0, epoch = 0;
  if (!readU32(buf, off, len) || !readU32(buf, off, epoch) ||
      buf.size() - kChunkHeader < len)
    return 0;
  const Bytes plain = codecFor(epoch).unblind(buf.subspan(kChunkHeader, len));
  emitData(plain);
  return kChunkHeader + len;
}

void BlindedStream::onInner(ByteView data) {
  chunks_.feed(
      data, [this](ByteView buf) { return readChunk(buf); },
      [this] { return inner_ != nullptr; });  // a handler may close us
}

void BlindedStream::close() {
  if (inner_ != nullptr) {
    inner_->setOnData(nullptr);
    inner_->setOnClose(nullptr);
    inner_->close();
    inner_ = nullptr;
  }
}

}  // namespace sc::core
