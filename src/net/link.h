// Point-to-point links with propagation delay, serialization (bandwidth),
// jitter, queueing and random loss — plus middlebox attachment points.
//
// The GFW is modeled as a PacketFilter on the China↔US border link, which
// matches the empirical finding the paper cites (99% of blocking happens at
// the border routers between China and the US).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/registry.h"
#include "sim/time.h"

namespace sc::net {

class Network;
class Node;
class Link;

enum class Direction { kAtoB, kBtoA };

inline Direction reverse(Direction d) {
  return d == Direction::kAtoB ? Direction::kBtoA : Direction::kAtoB;
}

struct LinkParams {
  sim::Time prop_delay = sim::kMillisecond;
  double bandwidth_bps = 1e9;
  double loss_rate = 0.0;          // random loss per packet per traversal
  sim::Time jitter = 0;            // uniform extra delay in [0, jitter]
  sim::Time max_queue_delay = 500 * sim::kMillisecond;  // tail-drop threshold
};

// Middlebox hook. Filters run in attachment order on every packet crossing
// the link (both directions); any filter may drop the packet or mutate it,
// and may inject fabricated packets via Link::inject (e.g. GFW RSTs and
// poisoned DNS answers race the genuine reply).
class PacketFilter {
 public:
  enum class Verdict { kPass, kDrop };

  virtual ~PacketFilter() = default;
  virtual Verdict onPacket(Packet& pkt, Direction dir, Link& link) = 0;
};

class Link {
 public:
  Link(Network& net, Node& a, Node& b, LinkParams params, std::string name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Entry point used by Node: runs filters, models loss/queueing, and
  // schedules delivery at the far end.
  void transmit(Packet&& pkt, const Node& from);

  // Delivers a fabricated packet toward the `dir` endpoint without running
  // filters again (the injector *is* the middlebox).
  void inject(Direction dir, Packet pkt);

  void addFilter(PacketFilter* filter) { filters_.push_back(filter); }

  // ---- chaos seams ----
  // Administrative state: a downed link silently eats every packet offered
  // to it, in both directions, including injected ones — the blackhole
  // semantics of a cut cable or a crashed host (no RST, no ICMP, nothing).
  // The fault injector flips this for link-flap and node-crash faults.
  void setUp(bool up) noexcept { up_ = up; }
  bool isUp() const noexcept { return up_; }

  Node& endpoint(Direction dir) const {
    return dir == Direction::kAtoB ? *b_ : *a_;
  }
  Direction directionFrom(const Node& from) const;

  LinkParams& params() noexcept { return params_; }
  const std::string& name() const noexcept { return name_; }
  Network& network() noexcept { return net_; }

  // Cumulative wire bytes carried per direction (for traffic accounting).
  std::uint64_t bytesCarried(Direction dir) const {
    return bytes_carried_[static_cast<int>(dir)];
  }

  // Queueing delay the most recent transmitted packet experienced at the
  // head of the link (also fed to the shared obs histogram).
  sim::Time lastQueueDelay() const noexcept { return last_queue_delay_; }

 private:
  void scheduleDelivery(Direction dir, Packet&& pkt);

  Network& net_;
  Node* a_;
  Node* b_;
  LinkParams params_;
  std::string name_;
  bool up_ = true;
  std::vector<PacketFilter*> filters_;
  sim::Time next_free_[2] = {0, 0};
  std::uint64_t bytes_carried_[2] = {0, 0};
  sim::Time last_queue_delay_ = 0;

  // Pre-resolved obs handles (null when no hub is installed).
  obs::Counter* c_bytes_[2] = {nullptr, nullptr};
  obs::Histogram* h_queue_delay_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
};

}  // namespace sc::net
