#include "net/network.h"

#include <algorithm>

namespace sc::net {

obs::FlowKey flowKeyOf(const Packet& pkt) {
  obs::FlowKey key;
  key.src = pkt.src.v;
  key.dst = pkt.dst.v;
  key.src_port = pkt.srcPort();
  key.dst_port = pkt.dstPort();
  key.proto = static_cast<std::uint8_t>(pkt.proto);
  return key;
}

namespace {
constexpr auto kTagBelow = [](const auto& entry, std::uint32_t tag) {
  return entry.tag < tag;
};

void traceDrop(sim::Simulator& sim, const Packet& pkt, const char* cause) {
  obs::Tracer* tracer = obs::tracerOf(sim);
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = sim.now();
  ev.type = obs::EventType::kPacketDrop;
  ev.what = cause;
  ev.flow = flowKeyOf(pkt);
  ev.pkt_id = pkt.id;
  ev.tag = pkt.measure_tag;
  tracer->record(std::move(ev));
}
}  // namespace

Network::Network(sim::Simulator& sim) : sim_(sim) { resolveInstruments(); }

void Network::resolveInstruments() {
  obs::Registry* reg = obs::registryOf(sim_);
  if (reg == nullptr) return;
  c_originated_ = reg->counter("net.packets.originated");
  c_delivered_ = reg->counter("net.packets.delivered");
  c_bytes_originated_ = reg->counter("net.bytes.originated");
  c_drop_random_ = reg->counter("net.drop.random");
  c_drop_filter_ = reg->counter("net.drop.filter");
  c_drop_queue_ = reg->counter("net.drop.queue");
}

Node& Network::addNode(std::string name) {
  nodes_.push_back(std::make_unique<Node>(*this, std::move(name)));
  return *nodes_.back();
}

Link& Network::addLink(Node& a, Node& b, LinkParams params, std::string name) {
  links_.push_back(
      std::make_unique<Link>(*this, a, b, params, std::move(name)));
  return *links_.back();
}

Link* Network::findLink(const std::string& name) {
  for (const auto& link : links_)
    if (link->name() == name) return link.get();
  return nullptr;
}

Network::TagStats& Network::statsFor(std::uint32_t tag) {
  auto it = std::lower_bound(tag_stats_.begin(), tag_stats_.end(), tag,
                             kTagBelow);
  if (it == tag_stats_.end() || it->tag != tag)
    it = tag_stats_.insert(it, TaggedStats{tag, TagStats{}});
  return it->stats;
}

void Network::noteOriginated(const Packet& pkt) {
  ++total_originated_;
  auto& s = statsFor(pkt.measure_tag);
  ++s.originated;
  s.bytes_originated += pkt.wireSize();
  // Lazy re-resolve covers hubs installed after network construction; once
  // resolved this is a single predictable branch per packet.
  if (c_originated_ == nullptr) resolveInstruments();
  if (c_originated_ != nullptr) {
    c_originated_->inc();
    c_bytes_originated_->inc(pkt.wireSize());
  }
}

void Network::noteDelivered(const Packet& pkt) {
  ++statsFor(pkt.measure_tag).delivered;
  if (c_delivered_ != nullptr) c_delivered_->inc();
}

void Network::noteLostRandom(const Packet& pkt) {
  ++statsFor(pkt.measure_tag).lost_random;
  if (c_drop_random_ != nullptr) c_drop_random_->inc();
  traceDrop(sim_, pkt, "random");
}

void Network::noteLostFilter(const Packet& pkt) {
  ++statsFor(pkt.measure_tag).lost_filter;
  if (c_drop_filter_ != nullptr) c_drop_filter_->inc();
  traceDrop(sim_, pkt, "filter");
}

void Network::noteLostQueue(const Packet& pkt) {
  ++statsFor(pkt.measure_tag).lost_queue;
  if (c_drop_queue_ != nullptr) c_drop_queue_->inc();
  traceDrop(sim_, pkt, "queue");
}

Network::TagStats Network::tagStats(std::uint32_t tag) const {
  const auto it = std::lower_bound(tag_stats_.begin(), tag_stats_.end(), tag,
                                   kTagBelow);
  return it == tag_stats_.end() || it->tag != tag ? TagStats{} : it->stats;
}

}  // namespace sc::net
