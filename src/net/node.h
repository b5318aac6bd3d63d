// Nodes: hosts and routers of the simulated internet.
//
// A Node delivers packets for its own addresses to a local handler (the
// transport stack) and forwards the rest by longest-prefix match; routers
// simply leave the handler unset. One binary search answers both: a sorted
// table holds the node's addresses and its /32 host routes (a router has
// one of each per attached host), and the few shorter prefixes sit in a
// list ordered longest first. A Node may also install an egress hook — the
// tun-device abstraction used by VPN clients to swallow all
// locally-originated traffic into a tunnel before it reaches routing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/packet.h"

namespace sc::net {

class Network;

class Node {
 public:
  Node(Network& net, std::string name);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Attaches this node to a link with the given interface address.
  void attach(Link& link, Ipv4 ip);

  // Longest prefix wins; among equal lengths the route added first wins; a
  // /0 route beats the default route. Returns false, adding nothing, when
  // the prefix length is outside 0..32.
  bool addRoute(Prefix prefix, Link& via);
  void setDefaultRoute(Link& via) { default_route_ = &via; }

  // Originates (or forwards) a packet. Fills in pkt.src with the primary
  // address when unset, assigns a packet id on origination, applies the
  // egress hook, then routes.
  void send(Packet pkt);

  // Called by Link on arrival.
  void deliverFromLink(Packet&& pkt, Link& from);

  // Where a packet for `dst` goes: local delivery when `dst` is one of this
  // node's addresses, else out by `via` (null when no route matches).
  struct Hop {
    bool local = false;
    Link* via = nullptr;
  };
  Hop nextHop(Ipv4 dst) const;

  // True for an interface address or a virtual address of this node.
  bool hasIp(Ipv4 ip) const { return nextHop(ip).local; }
  Ipv4 primaryIp() const noexcept { return primary_ip_; }

  // ---- tun-device support (VPN clients) ----
  // Adds an address with no attached link (a tun interface). Delivery to it
  // hits the local handler; it never participates in routing. Removal drops
  // every virtual copy of the address and leaves interface addresses alone.
  void addVirtualIp(Ipv4 ip);
  void removeVirtualIp(Ipv4 ip);
  // When set, locally-originated packets use this source address instead of
  // the primary interface address (what `ifconfig tun0` does to a host).
  void setPreferredSource(Ipv4 ip) { preferred_source_ = ip; }
  void clearPreferredSource() { preferred_source_ = Ipv4{}; }
  Ipv4 effectiveSource() const {
    return preferred_source_.isZero() ? primaryIp() : preferred_source_;
  }

  // Injects a packet into local delivery as if it had arrived on an
  // interface (used by VPN decapsulation). Runs the local handler directly.
  void deliverLocal(Packet&& pkt);

  using LocalHandler = std::function<void(Packet&&)>;
  void setLocalHandler(LocalHandler h) { local_handler_ = std::move(h); }

  // Returns true when the hook consumed the packet (e.g. VPN encapsulation).
  // A consuming hook takes ownership and may move out of `pkt`; returning
  // false must leave the packet untouched (it continues through routing).
  using EgressHook = std::function<bool(Packet&)>;
  void setEgressHook(EgressHook h) { egress_hook_ = std::move(h); }
  void clearEgressHook() { egress_hook_ = nullptr; }

  Network& network() noexcept { return net_; }
  const std::string& name() const noexcept { return name_; }

  std::uint64_t packetsForwarded() const noexcept { return forwarded_; }

 private:
  // One entry of the exact-match table, ordered by address; entries for one
  // address keep the order they were added in.
  enum class EntryKind : std::uint8_t { kInterface, kVirtual, kHostRoute };
  struct Entry {
    Ipv4 ip;
    EntryKind kind;
    Link* via;  // kHostRoute only
  };
  struct Route {
    Prefix prefix;
    Link* via;
  };

  void insertExact(Entry entry);

  Network& net_;
  std::string name_;
  Ipv4 primary_ip_;  // the first attached interface's address
  bool has_interface_ = false;
  Ipv4 preferred_source_;
  std::vector<Entry> exact_;
  std::vector<Route> prefixes_;  // lengths 0..31, longest first, stable
  Link* default_route_ = nullptr;
  LocalHandler local_handler_;
  EgressHook egress_hook_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace sc::net
