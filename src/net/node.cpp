#include "net/node.h"

#include <algorithm>

#include "net/network.h"

namespace sc::net {

namespace {
constexpr auto kByIp = [](const auto& lhs, const auto& rhs) {
  return lhs.ip < rhs.ip;
};
}  // namespace

Node::Node(Network& net, std::string name) : net_(net), name_(std::move(name)) {}

void Node::insertExact(Entry entry) {
  // After every entry for the same address, so the first one added stays
  // first among them.
  exact_.insert(std::upper_bound(exact_.begin(), exact_.end(), entry, kByIp),
                entry);
}

void Node::attach(Link& link, Ipv4 ip) {
  (void)link;
  if (!has_interface_) primary_ip_ = ip;
  has_interface_ = true;
  insertExact(Entry{ip, EntryKind::kInterface, nullptr});
}

bool Node::addRoute(Prefix prefix, Link& via) {
  if (prefix.length < 0 || prefix.length > 32) return false;
  if (prefix.length == 32) {
    insertExact(Entry{prefix.base, EntryKind::kHostRoute, &via});
    return true;
  }
  const auto longer = [](int length, const Route& r) {
    return length > r.prefix.length;
  };
  prefixes_.insert(std::upper_bound(prefixes_.begin(), prefixes_.end(),
                                    prefix.length, longer),
                   Route{prefix, &via});
  return true;
}

Node::Hop Node::nextHop(Ipv4 dst) const {
  Hop hop;
  auto it = std::lower_bound(exact_.begin(), exact_.end(),
                             Entry{dst, EntryKind::kInterface, nullptr}, kByIp);
  for (; it != exact_.end() && it->ip == dst; ++it) {
    if (it->kind != EntryKind::kHostRoute) return Hop{true, nullptr};
    if (hop.via == nullptr) hop.via = it->via;
  }
  if (hop.via != nullptr) return hop;
  for (const Route& r : prefixes_)
    if (r.prefix.contains(dst)) return Hop{false, r.via};
  return Hop{false, default_route_};
}

void Node::addVirtualIp(Ipv4 ip) {
  insertExact(Entry{ip, EntryKind::kVirtual, nullptr});
}

void Node::removeVirtualIp(Ipv4 ip) {
  std::erase_if(exact_, [ip](const Entry& e) {
    return e.ip == ip && e.kind == EntryKind::kVirtual;
  });
}

void Node::deliverLocal(Packet&& pkt) {
  net_.noteDelivered(pkt);
  if (local_handler_) local_handler_(std::move(pkt));
}

void Node::send(Packet pkt) {
  const bool originating = pkt.id == 0;
  if (originating) {
    if (pkt.src.isZero()) pkt.src = effectiveSource();
    pkt.id = net_.nextPacketId();
    // The egress hook (VPN tun device) only sees locally-originated traffic.
    // Consumed packets are NOT counted as originated: only their encapsulated
    // outer form hits the wire, and packet accounting measures the wire.
    if (egress_hook_ && egress_hook_(pkt)) return;
  }
  const Hop hop = nextHop(pkt.dst);
  if (hop.local) {
    // Loopback delivery (e.g. a local proxy on the same host). Stays off the
    // wire, so it doesn't enter the loss accounting either. Stashed like a
    // link hop so the closure stays inline in the event record.
    auto& sim = net_.sim();
    Node* self = this;
    const std::uint32_t idx = net_.stashPacket(std::move(pkt));
    sim.schedule(50, [self, idx] {
      Packet p = self->net_.unstashPacket(idx);
      if (self->local_handler_) self->local_handler_(std::move(p));
    });
    return;
  }
  if (originating) net_.noteOriginated(pkt);
  if (hop.via == nullptr) return;  // no route: silently dropped (like ICMP-less)
  hop.via->transmit(std::move(pkt), *this);
}

void Node::deliverFromLink(Packet&& pkt, Link& from) {
  (void)from;
  const Hop hop = nextHop(pkt.dst);
  if (hop.local) {
    net_.noteDelivered(pkt);
    if (local_handler_) local_handler_(std::move(pkt));
    return;
  }
  if (pkt.ttl == 0) return;
  --pkt.ttl;
  ++forwarded_;
  if (hop.via == nullptr) return;
  hop.via->transmit(std::move(pkt), *this);
}

}  // namespace sc::net
