#include "transport/host_stack.h"

namespace sc::transport {

void CpuQueue::submit(double cycles, sim::EventFn done) {
  const sim::Time now = sim_.now();
  const auto service =
      static_cast<sim::Time>(cycles / speed_hz_ * sim::kSecond);
  busy_until_ = std::max(busy_until_, now) + service;
  sim_.scheduleAt(busy_until_, std::move(done));
}

HostStack::HostStack(net::Node& node, double cpu_hz)
    : node_(node), cpu_(node.network().sim(), cpu_hz) {
  node_.setLocalHandler([this](net::Packet&& pkt) { onPacket(std::move(pkt)); });
}

HostStack::~HostStack() {
  // Sockets still open when the world goes away may sit in handler cycles
  // with the layers above them; detaching breaks those so the world frees.
  std::vector<TcpSocket::Ptr> open;
  open.reserve(conns_.size());
  conns_.forEach([&open](TcpSocket* sock) {
    if (auto p = sock->weak_from_this().lock()) open.push_back(std::move(p));
  });
  conns_.clear();
  for (const auto& sock : open) sock->detach();
}

net::Port HostStack::allocatePort() {
  if (next_port_ == 0) next_port_ = 49152;  // wrapped
  return next_port_++;
}

TcpSocket::Ptr HostStack::tcpConnect(net::Endpoint remote,
                                     TcpSocket::ConnectHandler cb,
                                     std::uint32_t measure_tag) {
  const net::Endpoint local{ip(), allocatePort()};
  auto sock = std::make_shared<TcpSocket>(*this, local, remote, measure_tag);
  sock->connect(std::move(cb));
  return sock;
}

TcpListener::Ptr HostStack::tcpListen(net::Port port,
                                      TcpListener::AcceptHandler cb) {
  auto listener = std::make_shared<TcpListener>(port);
  listener->setOnAccept(std::move(cb));
  listeners_[port] = listener;
  return listener;
}

void HostStack::tcpUnlisten(net::Port port) { listeners_.erase(port); }

void HostStack::udpBind(net::Port port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void HostStack::udpUnbind(net::Port port) { udp_handlers_.erase(port); }

void HostStack::udpSend(net::Port local_port, net::Endpoint remote, Bytes data,
                        std::uint32_t measure_tag) {
  net::Packet pkt = net::makeUdp(ip(), remote.ip, local_port, remote.port,
                                 std::move(data));
  pkt.measure_tag = measure_tag;
  sendPacket(std::move(pkt));
}

void HostStack::setRawHandler(net::IpProto proto, RawHandler handler) {
  raw_handlers_[proto] = std::move(handler);
}

void HostStack::setPortCapture(net::Port lo, net::Port hi, RawHandler handler) {
  captures_.push_back(PortCapture{lo, hi, std::move(handler)});
}

void HostStack::clearPortCapture(net::Port lo, net::Port hi) {
  std::erase_if(captures_, [&](const PortCapture& c) {
    return c.lo == lo && c.hi == hi;
  });
}

void HostStack::sendPacket(net::Packet pkt) {
  if (pkt.src.isZero()) pkt.src = ip();
  node_.send(std::move(pkt));
}

void HostStack::registerSocket(TcpSocket& sock) {
  conns_.assign(ConnTable<TcpSocket>::keyOf(sock.local(), sock.remote()),
                &sock);
  sock.registered_ = true;
}

void HostStack::unregisterSocket(const TcpSocket& sock) {
  conns_.erase(ConnTable<TcpSocket>::keyOf(sock.local(), sock.remote()));
}

void HostStack::forgetSocket(const TcpSocket& sock) {
  // A newer socket may have taken the key over; its entry stays.
  conns_.erase(ConnTable<TcpSocket>::keyOf(sock.local(), sock.remote()),
               &sock);
}

void HostStack::onPacket(net::Packet&& pkt) {
  if (!captures_.empty() && (pkt.isTcp() || pkt.isUdp())) {
    const net::Port dport = pkt.dstPort();
    for (const auto& capture : captures_) {
      if (dport >= capture.lo && dport < capture.hi) {
        capture.handler(std::move(pkt));
        return;
      }
    }
  }
  switch (pkt.proto) {
    case net::IpProto::kTcp:
      onTcpPacket(std::move(pkt));
      return;
    case net::IpProto::kUdp: {
      const auto it = udp_handlers_.find(pkt.udp().dst_port);
      if (it != udp_handlers_.end()) {
        it->second(net::Endpoint{pkt.src, pkt.udp().src_port}, pkt.payload,
                   pkt.measure_tag);
      }
      return;
    }
    default: {
      const auto it = raw_handlers_.find(pkt.proto);
      if (it != raw_handlers_.end()) it->second(std::move(pkt));
      return;
    }
  }
}

void HostStack::onTcpPacket(net::Packet&& pkt) {
  const auto& t = pkt.tcp();
  if (TcpSocket* sock = conns_.find(ConnTable<TcpSocket>::keyOf(
          net::Endpoint{pkt.dst, t.dst_port},
          net::Endpoint{pkt.src, t.src_port}))) {
    sock->onPacket(pkt);
    return;
  }

  if (t.flags.syn && !t.flags.ack) {
    const auto lit = listeners_.find(t.dst_port);
    if (lit != listeners_.end()) {
      auto sock = std::make_shared<TcpSocket>(
          *this, net::Endpoint{pkt.dst, t.dst_port},
          net::Endpoint{pkt.src, t.src_port}, pkt.measure_tag);
      sock->acceptSyn(pkt);
      if (lit->second->on_accept_) lit->second->on_accept_(sock);
      return;
    }
  }

  // No socket, no listener: answer with RST (unless this *is* a RST).
  // This closed-port fingerprint is exactly what GFW active probing reads.
  if (!t.flags.rst) {
    net::TcpFlags rst;
    rst.rst = true;
    rst.ack = true;
    net::Packet reply =
        net::makeTcp(pkt.dst, pkt.src, t.dst_port, t.src_port, rst,
                     t.ack, t.seq + 1, {});
    reply.measure_tag = pkt.measure_tag;
    sendPacket(std::move(reply));
  }
}

namespace {
class DirectConnector final : public Connector {
 public:
  DirectConnector(HostStack& stack, std::uint32_t tag)
      : stack_(stack), tag_(tag) {}

  void connect(ConnectTarget target, ConnectHandler cb) override {
    if (target.byName()) {  // direct connector has no resolver of its own
      cb(nullptr);
      return;
    }
    stack_.tcpConnect(net::Endpoint{target.ip, target.port}, std::move(cb),
                      tag_);
  }

 private:
  HostStack& stack_;
  std::uint32_t tag_;
};
}  // namespace

Connector::Ptr HostStack::directConnector(std::uint32_t measure_tag) {
  return std::make_shared<DirectConnector>(*this, measure_tag);
}

}  // namespace sc::transport
