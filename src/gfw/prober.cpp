#include "gfw/prober.h"

namespace sc::gfw {

namespace {
struct ProbeOp : std::enable_shared_from_this<ProbeOp> {
  transport::HostStack& stack;
  const GfwConfig& config;
  ActiveProber::ProbeCallback cb;
  transport::TcpSocket::Ptr sock;
  sim::EventHandle mute_timer;
  bool done = false;
  bool got_data = false;

  ProbeOp(transport::HostStack& s, const GfwConfig& c,
          ActiveProber::ProbeCallback callback)
      : stack(s), config(c), cb(std::move(callback)) {}

  void finish(bool confirmed) {
    if (done) return;
    done = true;
    mute_timer.cancel();
    if (sock != nullptr) {
      sock->setOnData(nullptr);
      sock->setOnClose(nullptr);
      sock->close();
      sock = nullptr;
    }
    auto callback = std::move(cb);
    callback(confirmed);
  }

  // The connect callback, then the mute timer, own the probe; the socket's
  // handlers only observe it.
  void start(net::Endpoint target) {
    stack.tcpConnect(target, [self = shared_from_this()](
                                 transport::TcpSocket::Ptr s) {
      if (s == nullptr) {
        // Connection refused / filtered: nothing to learn.
        self->finish(false);
        return;
      }
      self->sock = std::move(s);
      std::weak_ptr<ProbeOp> weak = self;
      self->sock->setOnData([weak](ByteView) {
        // Any response at all exonerates the server.
        if (auto op = weak.lock()) {
          op->got_data = true;
          op->finish(false);
        }
      });
      self->sock->setOnClose([weak] {
        // Accepted then silently closed without a byte: confirmed.
        if (auto op = weak.lock()) op->finish(!op->got_data);
      });
      self->sock->send(self->stack.sim().rng().randomBytes(64));
      self->mute_timer = self->stack.sim().schedule(
          self->config.probe_mute_window,
          [self] { self->finish(!self->got_data); });
    });
  }
};
}  // namespace

void ActiveProber::probe(net::Endpoint target, ProbeCallback cb) {
  ++probes_sent_;
  auto op = std::make_shared<ProbeOp>(
      stack_, config_, [this, cb = std::move(cb)](bool confirmed) {
        if (confirmed) ++probes_confirmed_;
        cb(confirmed);
      });
  op->start(target);
}

}  // namespace sc::gfw
