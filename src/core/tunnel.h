// The ScholarCloud tunnel: many logical streams multiplexed over one
// long-lived TCP connection between the domestic and remote proxies, wrapped
// in the blinding layer.
//
// Design notes tied to the paper's performance claims (§4.3):
//  - NO per-session authentication connection: the tunnel authenticates once
//    (pre-shared secret implied by the blinding itself) and stays up, which
//    is exactly why ScholarCloud beats Shadowsocks' PLT;
//  - 0-RTT stream opens: OPEN frames carry data immediately; the remote
//    buffers until its upstream connection completes;
//  - selective encryption: streams opened with `passthrough=true` (CONNECT
//    tunnels already protected by end-to-end HTTPS) skip the inner AES
//    layer — "if a message is already encrypted with HTTPS, ScholarCloud
//    will not encrypt it again";
//  - agility: rotateBlinding() re-keys the byte mapping live, in both
//    directions, without dropping streams.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/blinded_stream.h"
#include "crypto/hmac.h"
#include "obs/hub.h"
#include "sim/simulator.h"
#include "transport/stream.h"

namespace sc::core {

enum class FrameType : std::uint8_t {
  kOpen = 1,
  kData = 2,
  kClose = 3,
  kRotate = 4,
  kPing = 5,
  kPong = 6,
};

class Tunnel;

// One logical stream inside the tunnel. Created via Tunnel::openStream
// (client side) or handed to the open handler (server side).
class TunnelStream final : public transport::Stream,
                           public std::enable_shared_from_this<TunnelStream> {
 public:
  using Ptr = std::shared_ptr<TunnelStream>;

  void send(Bytes data) override;
  void close() override;
  bool connected() const override;

  std::uint32_t id() const noexcept { return id_; }

 private:
  friend class Tunnel;
  TunnelStream(std::shared_ptr<Tunnel> tunnel, std::uint32_t id)
      : tunnel_(std::move(tunnel)), id_(id) {}

  void deliver(ByteView data) { emitData(data); }
  void remoteClosed() {
    open_ = false;
    emitClose();
  }

  std::shared_ptr<Tunnel> tunnel_;
  std::uint32_t id_;
  bool open_ = true;
};

class Tunnel : public std::enable_shared_from_this<Tunnel> {
 public:
  using Ptr = std::shared_ptr<Tunnel>;

  struct Options {
    Bytes secret;
    std::uint32_t blinding_epoch = 0;
    crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
    bool client_side = true;
  };

  static Ptr create(transport::Stream::Ptr wire, sim::Simulator& sim,
                    Options options);
  ~Tunnel();

  // Client side: opens a logical stream to `target` through the remote
  // proxy. Returns immediately (0-RTT); the stream is usable at once.
  // When `passthrough` is false the stream is wrapped in the inner AES
  // layer; both ends derive the per-stream key from (secret, stream id).
  transport::Stream::Ptr openStream(const transport::ConnectTarget& target,
                                    bool passthrough);

  // Server side: invoked for every OPEN. The handler owns the stream.
  using OpenHandler =
      std::function<void(transport::Stream::Ptr stream,
                         transport::ConnectTarget target, bool passthrough)>;
  void setOpenHandler(OpenHandler handler) { on_open_ = std::move(handler); }

  // Live re-keying of the blinding layer in both directions.
  void rotateBlinding(std::uint32_t new_epoch);

  void ping(std::function<void()> on_pong);
  void close();
  bool connected() const { return wire_ != nullptr && wire_->connected(); }
  void setOnClose(std::function<void()> cb) { on_close_ = std::move(cb); }

  std::uint64_t streamsOpened() const noexcept { return streams_opened_; }
  std::uint32_t blindingEpoch() const {
    return wire_ != nullptr ? wire_->txEpoch() : 0;
  }

 private:
  Tunnel(sim::Simulator& sim, Options options)
      : sim_(sim),
        options_(std::move(options)),
        stream_keys_(options_.secret) {}

  void start(transport::Stream::Ptr raw_wire);
  void sendFrame(FrameType type, std::uint32_t stream_id, ByteView payload);
  void onWireData(ByteView data);
  void handleFrame(FrameType type, std::uint32_t stream_id, ByteView payload);
  transport::Stream::Ptr wrapIfEncrypted(TunnelStream::Ptr stream,
                                         bool passthrough, bool client_side);
  void closeStream(std::uint32_t id);

  friend class TunnelStream;

  sim::Simulator& sim_;
  Options options_;
  // HMAC keyed once on options_.secret: every stream key derives from it.
  crypto::KeyedHmac stream_keys_;
  BlindedStream::Ptr wire_;
  Bytes rx_buffer_;
  // std::map, not unordered: wire teardown walks this calling remoteClosed()
  // on every live stream, and that callback order feeds event ordering —
  // ascending stream-id iteration keeps traces byte-identical across runs.
  std::map<std::uint32_t, std::weak_ptr<TunnelStream>> streams_;
  std::uint32_t next_stream_id_ = 1;
  OpenHandler on_open_;
  std::function<void()> on_close_;
  std::function<void()> on_pong_;
  std::uint64_t streams_opened_ = 0;

  // Per-frame-type tx counters, indexed by FrameType (0 unused); resolved
  // once in start(), null without a hub.
  obs::Counter* c_frames_tx_[7] = {};
  obs::Counter* c_streams_opened_ = nullptr;
  obs::Counter* c_rotations_ = nullptr;
};

const char* frameTypeName(FrameType type);

}  // namespace sc::core
