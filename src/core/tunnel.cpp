#include "core/tunnel.h"

#include "transport/cipher_stream.h"

namespace sc::core {

const char* frameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kOpen: return "open";
    case FrameType::kData: return "data";
    case FrameType::kClose: return "close";
    case FrameType::kRotate: return "rotate";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
  }
  return "?";
}

namespace {
Bytes encodeTarget(const transport::ConnectTarget& target, bool passthrough) {
  Bytes out;
  appendU8(out, passthrough ? 1 : 0);
  if (target.byName()) {
    appendU8(out, 0x03);
    appendU8(out, static_cast<std::uint8_t>(target.host.size()));
    appendBytes(out, toBytes(target.host));
  } else {
    appendU8(out, 0x01);
    appendU32(out, target.ip.v);
  }
  appendU16(out, target.port);
  return out;
}

bool decodeTarget(ByteView payload, transport::ConnectTarget& target,
                  bool& passthrough) {
  std::size_t off = 0;
  std::uint8_t flags = 0, atyp = 0;
  if (!readU8(payload, off, flags) || !readU8(payload, off, atyp))
    return false;
  passthrough = (flags & 1) != 0;
  if (atyp == 0x01) {
    std::uint32_t ip = 0;
    if (!readU32(payload, off, ip)) return false;
    target.ip = net::Ipv4(ip);
  } else if (atyp == 0x03) {
    std::uint8_t len = 0;
    Bytes host;
    if (!readU8(payload, off, len) || !readBytes(payload, off, len, host))
      return false;
    target.host = toString(host);
  } else {
    return false;
  }
  return readU16(payload, off, target.port);
}
}  // namespace

// --------------------------------------------------------------- TunnelStream

void TunnelStream::send(Bytes data) {
  if (!open_ || tunnel_ == nullptr) return;
  tunnel_->sendFrame(FrameType::kData, id_, data);
}

void TunnelStream::close() {
  if (!open_ || tunnel_ == nullptr) return;
  open_ = false;
  tunnel_->sendFrame(FrameType::kClose, id_, {});
  tunnel_->closeStream(id_);
}

bool TunnelStream::connected() const {
  return open_ && tunnel_ != nullptr && tunnel_->connected();
}

// --------------------------------------------------------------------- Tunnel

Tunnel::~Tunnel() {
  if (wire_ != nullptr) {
    wire_->setOnData(nullptr);
    wire_->setOnClose(nullptr);
  }
}

Tunnel::Ptr Tunnel::create(transport::Stream::Ptr wire, sim::Simulator& sim,
                           Options options) {
  auto t = Ptr(new Tunnel(sim, std::move(options)));
  t->start(std::move(wire));
  return t;
}

void Tunnel::start(transport::Stream::Ptr raw_wire) {
  wire_ = BlindedStream::wrap(std::move(raw_wire), options_.secret,
                              options_.blinding_epoch, options_.blinding_mode);
  // The tunnel owns its wire, so the wire's handlers hold only `this`;
  // ~Tunnel clears them. Each call keeps the tunnel alive while it runs.
  wire_->setOnData([this](ByteView data) {
    const Ptr keep = shared_from_this();
    onWireData(data);
  });
  wire_->setOnClose([this] {
    const Ptr keep = shared_from_this();
    for (auto& [id, weak] : streams_) {
      if (auto stream = weak.lock()) stream->remoteClosed();
    }
    streams_.clear();
    wire_ = nullptr;
    if (on_close_) on_close_();
  });
  // Server allocates even ids, client odd, so ids never collide.
  next_stream_id_ = options_.client_side ? 1 : 2;

  if (obs::Registry* reg = obs::registryOf(sim_)) {
    for (const FrameType t : {FrameType::kOpen, FrameType::kData,
                              FrameType::kClose, FrameType::kRotate,
                              FrameType::kPing, FrameType::kPong}) {
      c_frames_tx_[static_cast<std::size_t>(t)] =
          reg->counter(std::string("tunnel.frames_tx.") + frameTypeName(t));
    }
    c_streams_opened_ = reg->counter("tunnel.streams_opened");
    c_rotations_ = reg->counter("tunnel.rotations");
  }
}

void Tunnel::sendFrame(FrameType type, std::uint32_t stream_id,
                       ByteView payload) {
  if (wire_ == nullptr) return;
  if (obs::Counter* c = c_frames_tx_[static_cast<std::size_t>(type)])
    c->inc();
  if (obs::Tracer* tracer = obs::tracerOf(sim_)) {
    obs::Event ev;
    ev.at = sim_.now();
    switch (type) {
      case FrameType::kRotate: ev.type = obs::EventType::kTunnelRotate; break;
      case FrameType::kPing:
      case FrameType::kPong: ev.type = obs::EventType::kTunnelPing; break;
      default: ev.type = obs::EventType::kTunnelFrame; break;
    }
    ev.what = frameTypeName(type);
    ev.a = stream_id;
    if (type == FrameType::kRotate) {
      std::size_t off = 0;
      std::uint32_t epoch = 0;
      if (readU32(payload, off, epoch)) ev.a = epoch;
    } else if (type == FrameType::kPing || type == FrameType::kPong) {
      ev.a = type == FrameType::kPing ? 1 : 0;
    }
    tracer->record(std::move(ev));
  }
  Bytes frame;
  frame.reserve(9 + payload.size());
  appendU32(frame, static_cast<std::uint32_t>(payload.size()));
  appendU32(frame, stream_id);
  appendU8(frame, static_cast<std::uint8_t>(type));
  appendBytes(frame, payload);
  wire_->send(std::move(frame));
}

transport::Stream::Ptr Tunnel::wrapIfEncrypted(TunnelStream::Ptr stream,
                                               bool passthrough,
                                               bool client_side) {
  if (passthrough) return stream;
  Bytes label = toBytes("stream-");
  appendU32(label, stream->id());
  const Bytes key = stream_keys_.derive(asStringView(label), 32);
  // Directional IVs derived, not random: both ends must agree without an
  // extra exchange (the blinding layer already randomizes the wire bytes).
  // Each end derives only the IV it sends; the peer's arrives on the wire.
  const Bytes tx_iv = crypto::KeyedHmac(key).derive(
      client_side ? "iv-client" : "iv-server", 16);
  return transport::CipherStream::wrap(std::move(stream), key, tx_iv);
}

transport::Stream::Ptr Tunnel::openStream(
    const transport::ConnectTarget& target, bool passthrough) {
  if (wire_ == nullptr) return nullptr;
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  auto stream = TunnelStream::Ptr(new TunnelStream(shared_from_this(), id));
  streams_[id] = stream;
  ++streams_opened_;
  if (c_streams_opened_ != nullptr) c_streams_opened_->inc();
  sendFrame(FrameType::kOpen, id, encodeTarget(target, passthrough));
  return wrapIfEncrypted(std::move(stream), passthrough,
                         /*client_side=*/true);
}

void Tunnel::rotateBlinding(std::uint32_t new_epoch) {
  if (c_rotations_ != nullptr) c_rotations_->inc();
  Bytes payload;
  appendU32(payload, new_epoch);
  sendFrame(FrameType::kRotate, 0, payload);  // sent under the old mapping
  if (wire_ != nullptr) wire_->rotate(new_epoch);
}

void Tunnel::ping(std::function<void()> on_pong) {
  on_pong_ = std::move(on_pong);
  sendFrame(FrameType::kPing, 0, {});
}

void Tunnel::close() {
  if (wire_ != nullptr) {
    auto wire = wire_;
    wire_ = nullptr;
    wire->close();
  }
  for (auto& [id, weak] : streams_) {
    if (auto stream = weak.lock()) stream->remoteClosed();
  }
  streams_.clear();
}

void Tunnel::closeStream(std::uint32_t id) { streams_.erase(id); }

void Tunnel::onWireData(ByteView data) {
  appendBytes(rx_buffer_, data);
  while (true) {
    if (rx_buffer_.size() < 9) return;
    std::size_t off = 0;
    std::uint32_t len = 0, stream_id = 0;
    std::uint8_t type = 0;
    readU32(rx_buffer_, off, len);
    readU32(rx_buffer_, off, stream_id);
    readU8(rx_buffer_, off, type);
    if (rx_buffer_.size() < 9u + len) return;
    Bytes payload(rx_buffer_.begin() + 9,
                  rx_buffer_.begin() + 9 + static_cast<std::ptrdiff_t>(len));
    rx_buffer_.erase(rx_buffer_.begin(),
                     rx_buffer_.begin() + 9 + static_cast<std::ptrdiff_t>(len));
    handleFrame(static_cast<FrameType>(type), stream_id, payload);
    if (wire_ == nullptr) return;
  }
}

void Tunnel::handleFrame(FrameType type, std::uint32_t stream_id,
                         ByteView payload) {
  switch (type) {
    case FrameType::kOpen: {
      transport::ConnectTarget target;
      bool passthrough = false;
      if (!decodeTarget(payload, target, passthrough)) return;
      auto stream =
          TunnelStream::Ptr(new TunnelStream(shared_from_this(), stream_id));
      streams_[stream_id] = stream;
      auto wrapped = wrapIfEncrypted(stream, passthrough,
                                     /*client_side=*/false);
      if (on_open_) {
        on_open_(std::move(wrapped), std::move(target), passthrough);
      } else {
        stream->close();
      }
      return;
    }
    case FrameType::kData: {
      const auto it = streams_.find(stream_id);
      if (it == streams_.end()) return;
      if (auto stream = it->second.lock()) {
        stream->deliver(payload);
      } else {
        streams_.erase(it);
        sendFrame(FrameType::kClose, stream_id, {});
      }
      return;
    }
    case FrameType::kClose: {
      const auto it = streams_.find(stream_id);
      if (it == streams_.end()) return;
      auto weak = it->second;
      streams_.erase(it);
      if (auto stream = weak.lock()) stream->remoteClosed();
      return;
    }
    case FrameType::kRotate: {
      std::size_t off = 0;
      std::uint32_t epoch = 0;
      if (!readU32(payload, off, epoch)) return;
      if (wire_ != nullptr) wire_->rotate(epoch);  // re-key our tx direction
      return;
    }
    case FrameType::kPing:
      sendFrame(FrameType::kPong, 0, {});
      return;
    case FrameType::kPong:
      if (auto cb = std::move(on_pong_)) cb();
      return;
  }
}

}  // namespace sc::core
