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
  const Bytes blinded = codecFor(tx_epoch_).blind(data);
  Bytes chunk;
  appendU32(chunk, static_cast<std::uint32_t>(blinded.size()));
  appendU32(chunk, tx_epoch_);
  appendBytes(chunk, blinded);
  ++chunks_sent_;
  inner_->send(std::move(chunk));
}

void BlindedStream::onInner(ByteView data) {
  appendBytes(rx_buffer_, data);
  while (true) {
    if (rx_buffer_.size() < 8) return;
    std::size_t off = 0;
    std::uint32_t len = 0, epoch = 0;
    readU32(rx_buffer_, off, len);
    readU32(rx_buffer_, off, epoch);
    if (rx_buffer_.size() < 8u + len) return;
    const Bytes plain = codecFor(epoch).unblind(
        ByteView(rx_buffer_.data() + 8, len));
    rx_buffer_.erase(rx_buffer_.begin(),
                     rx_buffer_.begin() + 8 + static_cast<std::ptrdiff_t>(len));
    emitData(plain);
    if (inner_ == nullptr) return;
  }
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
