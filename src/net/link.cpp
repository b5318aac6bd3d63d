#include "net/link.h"

#include <cassert>

#include "net/network.h"
#include "net/node.h"

namespace sc::net {

Link::Link(Network& net, Node& a, Node& b, LinkParams params, std::string name)
    : net_(net), a_(&a), b_(&b), params_(params), name_(std::move(name)) {
  if (obs::Registry* reg = obs::registryOf(net_.sim())) {
    c_bytes_[0] = reg->counter("net.link." + name_ + ".bytes_ab");
    c_bytes_[1] = reg->counter("net.link." + name_ + ".bytes_ba");
    h_queue_delay_ = reg->histogram("net.link.queue_delay_us");
    g_queue_depth_ = reg->gauge("net.link.max_queue_delay_us");
  }
}

Direction Link::directionFrom(const Node& from) const {
  assert(&from == a_ || &from == b_);
  return &from == a_ ? Direction::kAtoB : Direction::kBtoA;
}

void Link::transmit(Packet&& pkt, const Node& from) {
  const Direction dir = directionFrom(from);

  if (!up_) {
    if (obs::Tracer* tracer = obs::tracerOf(net_.sim())) {
      obs::Event ev;
      ev.at = net_.sim().now();
      ev.type = obs::EventType::kPacketDrop;
      ev.what = "link_down";
      ev.detail = name_;
      ev.flow = flowKeyOf(pkt);
      ev.pkt_id = pkt.id;
      ev.tag = pkt.measure_tag;
      tracer->record(std::move(ev));
    }
    net_.noteLostFilter(pkt);
    return;
  }

  for (PacketFilter* f : filters_) {
    if (f->onPacket(pkt, dir, *this) == PacketFilter::Verdict::kDrop) {
      net_.noteLostFilter(pkt);
      return;
    }
  }

  auto& sim = net_.sim();
  if (params_.loss_rate > 0.0 && sim.rng().chance(params_.loss_rate)) {
    net_.noteLostRandom(pkt);
    return;
  }

  // Serialization + queueing at the head of the link.
  const int d = static_cast<int>(dir);
  const sim::Time now = sim.now();
  const double bits = static_cast<double>(pkt.wireSize()) * 8.0;
  const auto ser =
      static_cast<sim::Time>(bits / params_.bandwidth_bps * sim::kSecond);
  const sim::Time start = std::max(now, next_free_[d]);
  const sim::Time queue_delay = start - now;
  if (queue_delay > params_.max_queue_delay) {
    if (obs::Tracer* tracer = obs::tracerOf(sim)) {
      obs::Event ev;
      ev.at = now;
      ev.type = obs::EventType::kQueueOverflow;
      ev.what = "tail_drop";
      ev.detail = name_;
      ev.flow = flowKeyOf(pkt);
      ev.pkt_id = pkt.id;
      ev.tag = pkt.measure_tag;
      ev.a = queue_delay;
      tracer->record(std::move(ev));
    }
    net_.noteLostQueue(pkt);
    return;
  }
  next_free_[d] = start + ser;
  bytes_carried_[d] += pkt.wireSize();
  last_queue_delay_ = queue_delay;
  if (c_bytes_[d] != nullptr) {
    c_bytes_[d]->inc(pkt.wireSize());
    h_queue_delay_->observe(static_cast<double>(queue_delay));
    g_queue_depth_->setMax(static_cast<double>(queue_delay));
  }

  scheduleDelivery(dir, std::move(pkt));
}

void Link::scheduleDelivery(Direction dir, Packet&& pkt) {
  auto& sim = net_.sim();
  const int d = static_cast<int>(dir);
  sim::Time arrival = std::max(next_free_[d], sim.now()) + params_.prop_delay;
  if (params_.jitter > 0) arrival += sim.rng().uniformInt(0, params_.jitter);
  Node* to = &endpoint(dir);
  // Park the packet in the network stash: the closure carries three words,
  // so it lives in the event record itself — no allocation per hop.
  const std::uint32_t idx = net_.stashPacket(std::move(pkt));
  Link* self = this;
  sim.scheduleAt(arrival, [self, to, idx] {
    to->deliverFromLink(self->net_.unstashPacket(idx), *self);
  });
}

void Link::inject(Direction dir, Packet pkt) {
  if (!up_) return;  // a downed link blackholes fabricated packets too
  if (pkt.id == 0) pkt.id = net_.nextPacketId();
  scheduleDelivery(dir, std::move(pkt));
}

}  // namespace sc::net
