#include "obs/tracer.h"

namespace sc::obs {

const char* eventTypeName(EventType type) {
  switch (type) {
    case EventType::kPacketDrop: return "packet_drop";
    case EventType::kQueueOverflow: return "queue_overflow";
    case EventType::kGfwVerdict: return "gfw_verdict";
    case EventType::kProbeLaunch: return "probe_launch";
    case EventType::kProbeResult: return "probe_result";
    case EventType::kTunnelFrame: return "tunnel_frame";
    case EventType::kTunnelRotate: return "tunnel_rotate";
    case EventType::kTunnelPing: return "tunnel_ping";
    case EventType::kTcpRetransmit: return "tcp_retransmit";
    case EventType::kNote: return "note";
    case EventType::kPoolSaturation: return "pool_saturation";
    case EventType::kFleetProbe: return "fleet_probe";
    case EventType::kFleetFailover: return "fleet_failover";
    case EventType::kFleetScale: return "fleet_scale";
    case EventType::kCacheLookup: return "cache_lookup";
    case EventType::kChaosFault: return "chaos_fault";
    case EventType::kAccessOutcome: return "access_outcome";
    case EventType::kSpanEnd: return "span_end";
    case EventType::kSloAlert: return "slo_alert";
    case EventType::kPopulationTick: return "population_tick";
    case EventType::kServerlessLifecycle: return "serverless_lifecycle";
  }
  return "?";
}

void Tracer::enable(std::size_t cap) {
  enabled_ = true;
  if (cap == 0) cap = 1;
  if (cap != cap_) {
    cap_ = cap;
    ring_.clear();
    head_ = 0;
    total_ = 0;
    ring_.reserve(cap_ < kDefaultCap ? cap_ : kDefaultCap);
  }
}

void Tracer::disable() { enabled_ = false; }

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

void Tracer::record(Event ev) {
  if (!enabled_) return;
  if (sink_) sink_(ev);
  ++total_;
  if (ring_.size() < cap_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % cap_;
}

std::vector<Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

}  // namespace sc::obs
