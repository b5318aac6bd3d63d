// Sim-time structured event trace: a ring buffer of typed, timestamped
// records — which GFW inspector fired on which flow, which packet was
// dropped and why, when a tunnel re-keyed, when TCP retransmitted.
//
// Cost discipline: the tracer is disabled by default and every call site
// guards with `tracer.enabled()` (or the obs::tracerOf helper, which folds
// the null-hub and disabled checks into one). When disabled, tracing is a
// pointer load and a branch. When enabled, recording is a bounded-ring
// write; the oldest events are overwritten once the cap is hit (the drop
// count is kept so exports can say so).
//
// Determinism: events carry sim::Time only (never wallclock), `what` /
// `detail` are static string literals or names owned by long-lived objects,
// and export order is ring order — so two runs with the same seed emit
// byte-identical trace files.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sc::obs {

enum class EventType : std::uint8_t {
  kPacketDrop,     // what=cause ("filter"|"random"|"queue"), flow, tag, pkt id
  kQueueOverflow,  // detail=link name, a=queue delay us at tail-drop
  kGfwVerdict,     // what=inspector, detail=action, flow, tag
  kProbeLaunch,    // flow dst = probed server, a=port
  kProbeResult,    // a=1 confirmed / 0 exonerated
  kTunnelFrame,    // what=frame type, a=stream id
  kTunnelRotate,   // a=new blinding epoch
  kTunnelPing,     // a=1 ping / 0 pong
  kTcpRetransmit,  // what="rto"|"fast"|"syn", flow, a=seq
  kNote,           // free-form marker (campaign phase boundaries etc.)
  kPoolSaturation, // no tunnel stream to hand out at pick, a=retries left
  kFleetProbe,     // what="up"|"down"|"fail", detail=endpoint, a=failures
  kFleetFailover,  // what=cause ("retired"|"pick"), detail=endpoint, a=id
  kFleetScale,     // what="up"|"down"|"respawn"|"crash", detail=endpoint,
                   // a=new size (crash: endpoint id)
  kCacheLookup,    // what="hit"|"miss", detail=cache key, a=shard
  kChaosFault,     // what="begin"|"end"|"unhandled", detail=kind:target,
                   // a=fault id within the script
  kAccessOutcome,  // what="ok"|"fail", a=latency us (ok) / -1 (fail)
  kSpanEnd,        // span completion mirrored by the SpanTracer:
                   // what=span kind name, pkt_id=span id, a=duration us
  kSloAlert,       // what="page"|"ticket"|"clear", detail=SLO name,
                   // a=burn rate x1000 at evaluation time
  kPopulationTick, // what="tick", detail=class name ("" for the slice
                   // total), a=flow-level arrivals evaluated in the slice
  kServerlessLifecycle,  // what="spawn"|"warm"|"retire", detail=endpoint name
                         // (retire detail="<name>:<cause>"), a=endpoint id
};

// Number of EventType values. Keep in sync when adding enum values; the
// exhaustiveness test in test_obs.cpp walks [0, kEventTypeCount) and fails
// on any missing or duplicate eventTypeName.
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kServerlessLifecycle) + 1;

const char* eventTypeName(EventType type);

// Flow identity flattened to plain integers so obs stays below sc_net in
// the dependency order (sc_net links sc_obs, not the other way around).
struct FlowKey {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;
};

struct Event {
  sim::Time at = 0;
  EventType type = EventType::kNote;
  const char* what = "";  // static literal: inspector/cause/frame type
  std::string detail;     // dynamic: link name, flow class, hostname
  FlowKey flow;
  std::uint64_t pkt_id = 0;
  std::uint32_t tag = 0;
  std::int64_t a = 0;  // type-specific scalar (see EventType comments)
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCap = 1 << 16;

  bool enabled() const noexcept { return enabled_; }
  void enable(std::size_t cap = kDefaultCap);
  void disable();
  void clear();

  // Caller is expected to have checked enabled(); recording while disabled
  // is a silent no-op (keeps call sites safe, costs one branch).
  void record(Event ev);

  // Live tap: one observer sees every recorded event before it enters the
  // ring (so it is never lost to overwrite). Same single-observer contract
  // as gfw::IpBlocklist::setOnChange — fan-out is the observer's business.
  // The chaos RecoveryTracker hangs off this to measure time-to-recover.
  using Sink = std::function<void(const Event&)>;
  void setSink(Sink sink) { sink_ = std::move(sink); }

  // Events in chronological (ring) order.
  std::vector<Event> events() const;
  std::uint64_t recorded() const noexcept { return total_; }
  std::uint64_t overwritten() const noexcept {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

 private:
  bool enabled_ = false;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // next write position once the ring is full
  std::uint64_t total_ = 0;
  std::vector<Event> ring_;
  Sink sink_;
};

}  // namespace sc::obs
