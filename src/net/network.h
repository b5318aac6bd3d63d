// Network: owns all nodes and links, hands out packet ids, and keeps the
// per-measurement-tag delivery/loss counters that the PLR experiments read.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "obs/hub.h"
#include "sim/simulator.h"

namespace sc::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim);

  Node& addNode(std::string name);
  Link& addLink(Node& a, Node& b, LinkParams params, std::string name);

  // Name lookup for the chaos injectors (scripts target links by the names
  // the World factories assign, e.g. "transpacific" or "<leaf>-access").
  // Linear scan — fault injection is control-plane, not per-packet.
  Link* findLink(const std::string& name);

  sim::Simulator& sim() noexcept { return sim_; }
  std::uint64_t nextPacketId() noexcept { return ++next_packet_id_; }

  // ---- in-flight packet stash ----
  // Packets travelling a link are parked here while their delivery event
  // sits in the simulator queue; the event captures only {link, node, index}
  // and therefore fits the simulator's inline closure storage (no heap
  // allocation per hop). Slots are recycled through a free list.
  std::uint32_t stashPacket(Packet&& pkt) {
    if (!stash_free_.empty()) {
      const std::uint32_t idx = stash_free_.back();
      stash_free_.pop_back();
      stash_[idx] = std::move(pkt);
      return idx;
    }
    stash_.push_back(std::move(pkt));
    return static_cast<std::uint32_t>(stash_.size() - 1);
  }
  Packet unstashPacket(std::uint32_t idx) {
    Packet pkt = std::move(stash_[idx]);
    stash_free_.push_back(idx);
    return pkt;
  }

  // ---- measurement accounting (keyed by Packet::measure_tag) ----
  struct TagStats {
    std::uint64_t originated = 0;      // packets entering the network
    std::uint64_t delivered = 0;       // packets reaching a local handler
    std::uint64_t lost_random = 0;     // random link loss
    std::uint64_t lost_filter = 0;     // dropped by a middlebox (GFW)
    std::uint64_t lost_queue = 0;      // tail-dropped at a saturated link
    std::uint64_t bytes_originated = 0;

    std::uint64_t lostTotal() const {
      return lost_random + lost_filter + lost_queue;
    }
    // Packet loss rate over everything this tag put on the wire.
    double lossRate() const {
      const std::uint64_t denom = originated;
      return denom == 0 ? 0.0
                        : static_cast<double>(lostTotal()) /
                              static_cast<double>(denom);
    }
  };

  void noteOriginated(const Packet& pkt);
  void noteDelivered(const Packet& pkt);
  void noteLostRandom(const Packet& pkt);
  void noteLostFilter(const Packet& pkt);
  void noteLostQueue(const Packet& pkt);

  TagStats tagStats(std::uint32_t tag) const;
  void resetTagStats() { tag_stats_.clear(); }

  std::uint64_t totalOriginated() const noexcept { return total_originated_; }

 private:
  // Resolves metric handles once the simulator has a hub; every note* path
  // afterwards is a pre-resolved pointer bump (no map lookup per packet).
  void resolveInstruments();
  // The counters for `tag`, created on first use.
  TagStats& statsFor(std::uint32_t tag);

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t next_packet_id_ = 0;
  std::vector<Packet> stash_;
  std::vector<std::uint32_t> stash_free_;
  // Sorted by tag. A network sees a handful of tags, so a binary search
  // over a flat vector beats hashing on every packet.
  struct TaggedStats {
    std::uint32_t tag;
    TagStats stats;
  };
  std::vector<TaggedStats> tag_stats_;
  std::uint64_t total_originated_ = 0;

  obs::Counter* c_originated_ = nullptr;
  obs::Counter* c_delivered_ = nullptr;
  obs::Counter* c_bytes_originated_ = nullptr;
  obs::Counter* c_drop_random_ = nullptr;
  obs::Counter* c_drop_filter_ = nullptr;
  obs::Counter* c_drop_queue_ = nullptr;
};

// Flattens a packet's identity into the obs::FlowKey trace field.
obs::FlowKey flowKeyOf(const Packet& pkt);

}  // namespace sc::net
