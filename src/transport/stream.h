// Stream: the byte-stream abstraction every layer composes over.
//
// TcpSocket implements it directly; TLS sessions, SOCKS tunnels, Tor streams
// and the ScholarCloud blinded tunnel all wrap another Stream and re-expose
// the same interface, so the HTTP client/browser is agnostic to how many
// layers of proxying/encryption sit underneath.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "net/address.h"
#include "util/bytes.h"

namespace sc::transport {

class Stream {
 public:
  using Ptr = std::shared_ptr<Stream>;
  using DataHandler = std::function<void(ByteView)>;
  using CloseHandler = std::function<void()>;

  Stream() = default;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  virtual ~Stream() {
    for (Dispatch* d = dispatch_; d != nullptr; d = d->outer) d->gone = true;
  }

  virtual void send(Bytes data) = 0;
  virtual void close() = 0;
  virtual bool connected() const = 0;

  // Data arriving while no handler is installed is buffered and flushed to
  // the next handler — so a stream can be handed between owners (proxy
  // bridging, connection pools, 0-RTT tunnel opens) without losing bytes.
  // A handler may replace or clear itself while it runs (proxy handovers do
  // this): the running closure stays alive until it returns.
  void setOnData(DataHandler h) {
    on_data_ = std::move(h);
    markReplaced();
    if (on_data_ && !pending_.empty()) {
      Bytes buffered;
      buffered.swap(pending_);
      emitData(buffered);
    }
  }
  void setOnClose(CloseHandler h) { on_close_ = std::move(h); }

 protected:
  // Delivers without copying the handler: it is moved out for the call and
  // moved back unless it was replaced meanwhile. The handler may destroy
  // this stream; emitData then touches nothing after the call.
  void emitData(ByteView data) {
    if (dispatch_ != nullptr && !dispatch_->replaced) {
      // Re-entrant delivery while the installed handler is still running.
      Dispatch frame{dispatch_, dispatch_->running};
      dispatch_ = &frame;
      (*frame.running)(data);
      if (!frame.gone) dispatch_ = frame.outer;
      return;
    }
    if (!on_data_) {
      pending_.insert(pending_.end(), data.begin(), data.end());
      return;
    }
    DataHandler running = std::move(on_data_);
    Dispatch frame{dispatch_, &running};
    dispatch_ = &frame;
    running(data);
    if (frame.gone) return;
    dispatch_ = frame.outer;
    if (!frame.replaced) on_data_ = std::move(running);
  }
  void emitClose() {
    // Move out first: a close handler commonly destroys this stream.
    if (auto h = std::move(on_close_)) h();
  }
  // Drops both handlers (and whatever they capture) once the stream can
  // deliver nothing more. Buffered data stays for a later setOnData.
  // They are destroyed only after both members are empty: a capture's
  // destructor may clear this stream's handlers again.
  void releaseHandlers() {
    const DataHandler data = std::exchange(on_data_, nullptr);
    const CloseHandler close = std::exchange(on_close_, nullptr);
    markReplaced();
  }

 private:
  // One per emitData call on the stack; lets a handler replace itself and
  // lets the destructor tell running calls not to touch the stream again.
  struct Dispatch {
    Dispatch* outer;
    DataHandler* running;
    bool replaced = false;
    bool gone = false;
  };
  void markReplaced() {
    for (Dispatch* d = dispatch_; d != nullptr; d = d->outer) d->replaced = true;
  }

  DataHandler on_data_;
  CloseHandler on_close_;
  Bytes pending_;
  Dispatch* dispatch_ = nullptr;
};

// Where to connect: by address, or by name (proxies resolve names remotely —
// the property that lets SOCKS-based methods sidestep local DNS poisoning).
struct ConnectTarget {
  std::string host;  // empty when connecting by address
  net::Ipv4 ip;
  net::Port port = 0;

  bool byName() const noexcept { return !host.empty(); }
  static ConnectTarget byAddress(net::Endpoint ep) {
    return ConnectTarget{"", ep.ip, ep.port};
  }
  static ConnectTarget byHostname(std::string host, net::Port port) {
    return ConnectTarget{std::move(host), net::Ipv4{}, port};
  }
  std::string str() const {
    return (byName() ? host : ip.str()) + ":" + std::to_string(port);
  }
};

// Asynchronous connection factory. Implementations: direct TCP, TLS-over-X,
// SOCKS5-over-X, Tor circuits, ScholarCloud tunnel.
class Connector {
 public:
  using Ptr = std::shared_ptr<Connector>;
  // On failure the callback receives nullptr.
  using ConnectHandler = std::function<void(Stream::Ptr)>;

  virtual ~Connector() = default;
  virtual void connect(ConnectTarget target, ConnectHandler cb) = 0;
};

// Splices two streams together (a classic proxy data pump): everything
// received on one is forwarded to the other; a close on either side closes
// both. The bridge is the proxy's to own: each side's handlers hold the
// other side, so the pair lives until one closes, then the closed side drops
// its data handler; a socket drops the rest when it is torn down, and
// ~HostStack at the end of the world.
inline void bridgeStreams(Stream::Ptr a, Stream::Ptr b) {
  a->setOnData([b](ByteView data) { b->send(Bytes(data.begin(), data.end())); });
  b->setOnData([a](ByteView data) { a->send(Bytes(data.begin(), data.end())); });
  a->setOnClose([a_weak = std::weak_ptr(a), b] {
    b->close();
    if (auto s = a_weak.lock()) {
      s->setOnData(nullptr);
    }
  });
  b->setOnClose([b_weak = std::weak_ptr(b), a] {
    a->close();
    if (auto s = b_weak.lock()) {
      s->setOnData(nullptr);
    }
  });
}

}  // namespace sc::transport
