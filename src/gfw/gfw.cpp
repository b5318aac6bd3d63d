#include "gfw/gfw.h"

#include <algorithm>

#include "dns/message.h"
#include "obs/hub.h"

namespace sc::gfw {

namespace {
// Flow-table hygiene for day-long campaigns: every minute, drop flows idle
// for two.
constexpr sim::Time kFlowGcInterval = sim::kMinute;
constexpr sim::Time kFlowIdleTimeout = 2 * sim::kMinute;
}  // namespace

Gfw::Gfw(net::Network& network, GfwConfig config)
    : network_(network), config_(config) {
  resolveInstruments();
}

void Gfw::resolveInstruments() {
  obs::Registry* reg = obs::registryOf(network_.sim());
  if (reg == nullptr) return;
  c_inspected_ = reg->counter("gfw.packets_inspected");
  c_ip_blocked_ = reg->counter("gfw.ip_blocked");
  c_dns_poisoned_ = reg->counter("gfw.dns_poisoned");
  c_rst_injected_ = reg->counter("gfw.rst_injected");
  c_disciplined_ = reg->counter("gfw.disciplined_drops");
  c_leniency_ = reg->counter("gfw.leniency_granted");
  c_classified_ = reg->counter("gfw.flows_classified");
  c_probes_ = reg->counter("gfw.probes_launched");
  c_confirmed_ = reg->counter("gfw.suspects_confirmed");
}

void Gfw::traceVerdict(const net::Packet& pkt, const char* inspector,
                       const char* action) {
  obs::Tracer* tracer = obs::tracerOf(network_.sim());
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = network_.sim().now();
  ev.type = obs::EventType::kGfwVerdict;
  ev.what = inspector;
  ev.detail = action;
  ev.flow = net::flowKeyOf(pkt);
  ev.pkt_id = pkt.id;
  ev.tag = pkt.measure_tag;
  tracer->record(std::move(ev));
}

void Gfw::attachTo(net::Link& link, net::Direction outbound) {
  outbound_ = outbound;
  link.addFilter(this);
  // Periodic flow-table garbage collection for day-long campaigns.
  const auto gc = [this](auto&& self_ref) -> void {
    gcFlows();
    network_.sim().schedule(kFlowGcInterval,
                            [this, self_ref] { self_ref(self_ref); });
  };
  network_.sim().schedule(kFlowGcInterval, [gc] { gc(gc); });
}

void Gfw::addKnownTorRelay(net::Ipv4 ip) {
  if (config_.ip_blocking) ips_.add(ip);
}

void Gfw::mutatePolicy(const std::function<void(GfwConfig&)>& fn) {
  fn(config_);
  // Re-discipline live flows. Order-independent: applyDiscipline is a pure
  // per-flow recompute from (cls, config) with no callbacks or traces.
  // sclint:allow(det-unordered-iter) order-independent per-flow recompute, no observable side effects
  for (auto& [key, flow] : flows_) {
    if (flow.classified && !flow.lenient) applyDiscipline(flow);
  }
  ++policy_version_;
  if (on_policy_change_) on_policy_change_();
}

void Gfw::enableActiveProbing(transport::HostStack& probe_stack) {
  prober_ = std::make_unique<ActiveProber>(probe_stack);
}

std::map<FlowClass, std::uint64_t> Gfw::flowClassCounts() const {
  return class_counts_;
}

bool Gfw::isSuspectServer(net::Ipv4 ip) const {
  const auto it = suspect_servers_.find(ip);
  return it != suspect_servers_.end() && it->second > network_.sim().now();
}

void Gfw::gcFlows() {
  const sim::Time now = network_.sim().now();
  // Collect ids first and end them in sorted order: erase_if visits the
  // unordered map in hash order, and span-end mirror events must not depend
  // on it.
  std::vector<std::uint64_t> stale;
  std::erase_if(flows_, [&](const auto& kv) {
    const bool dead = now - kv.second.last_seen > kFlowIdleTimeout;
    if (dead && kv.second.span != 0 && !kv.second.classified)
      stale.push_back(kv.second.span);
    return dead;
  });
  if (auto* sp = obs::spansOf(network_.sim())) {
    std::sort(stale.begin(), stale.end());
    for (const std::uint64_t id : stale)
      sp->end(id, obs::SpanStatus::kCancelled);
  }
  std::erase_if(suspect_servers_,
                [&](const auto& kv) { return kv.second <= now; });
  // Expired IP-block entries are swept here rather than erased lazily
  // inside the (const) lookup.
  ips_.gcExpired(now);
}

void Gfw::refreshDpi() {
  if (dpi_.compiled() && dpi_version_ == domains_.version()) return;
  dpi_.compile(domains_.patterns());
  dpi_version_ = domains_.version();
}

bool Gfw::endpointIsRegisteredIcp(const net::Packet& pkt, bool outbound) const {
  if (!icp_lookup_) return false;
  // The China-side endpoint is the source of outbound packets.
  const net::Ipv4 domestic = outbound ? pkt.src : pkt.dst;
  return icp_lookup_(domestic);
}

void Gfw::injectRst(const net::Packet& offending, net::Link& link,
                    net::Direction dir) {
  ++stats_.rst_injected;
  if (c_rst_injected_ != nullptr) c_rst_injected_->inc();
  const auto& t = offending.tcp();
  // Forged RST toward the client (appears to come from the server)...
  net::TcpFlags rst;
  rst.rst = true;
  net::Packet to_client = net::makeTcp(offending.dst, offending.src,
                                       t.dst_port, t.src_port, rst, t.ack,
                                       t.seq, {});
  link.inject(net::reverse(dir), std::move(to_client));
  // ...and toward the server (appears to come from the client).
  net::Packet to_server = net::makeTcp(offending.src, offending.dst,
                                       t.src_port, t.dst_port, rst,
                                       t.seq + static_cast<std::uint32_t>(
                                                   offending.payload.size()),
                                       t.ack, {});
  link.inject(dir, std::move(to_server));
}

void Gfw::maybePoisonDns(const net::Packet& pkt, net::Link& link,
                         net::Direction dir) {
  // An empty domain list can never poison: skip the DNS parse entirely
  // (the common case for GFW configs that only do IP blocking).
  if (domains_.empty()) return;
  const auto query = dns::parseDns(pkt.payload);
  if (!query || query->is_response || query->questions.empty()) return;
  bool any_blocked = false;
  for (const auto& q : query->questions) {
    if (domains_.isBlocked(q.name)) {
      any_blocked = true;
      break;
    }
  }
  if (!any_blocked) return;

  ++stats_.dns_poisoned;
  if (c_dns_poisoned_ != nullptr) c_dns_poisoned_->inc();
  traceVerdict(pkt, "dns_poison", "forged_answer");
  dns::Message forged;
  forged.id = query->id;
  forged.is_response = true;
  for (const auto& q : query->questions) {
    dns::Answer a;
    a.name = q.name;
    a.ttl_seconds = 300;
    a.address = kPoisonAddress;
    forged.answers.push_back(std::move(a));
  }
  net::Packet reply = net::makeUdp(pkt.dst, pkt.src, pkt.udp().dst_port,
                                   pkt.udp().src_port,
                                   dns::serializeDns(forged));
  // Injected border-side: beats the genuine answer home by ~a trans-Pacific
  // round trip, so the resolver's first-answer-wins logic takes the bait.
  link.inject(net::reverse(dir), std::move(reply));
}

void Gfw::scheduleProbe(net::Endpoint server) {
  if (prober_ == nullptr || !config_.active_probing) return;
  if (!probed_servers_.insert(server.ip).second) return;  // already checked
  ++stats_.probes_launched;
  if (c_probes_ != nullptr) c_probes_->inc();
  const auto trace_probe = [this, server](obs::EventType type,
                                          std::int64_t result) {
    obs::Tracer* tracer = obs::tracerOf(network_.sim());
    if (tracer == nullptr) return;
    obs::Event ev;
    ev.at = network_.sim().now();
    ev.type = type;
    ev.what = type == obs::EventType::kProbeLaunch ? "launch" : "result";
    ev.flow.dst = server.ip.v;
    ev.flow.dst_port = server.port;
    ev.a = result;
    tracer->record(std::move(ev));
  };
  trace_probe(obs::EventType::kProbeLaunch, server.port);
  network_.sim().schedule(config_.probe_delay, [this, server, trace_probe] {
    prober_->probe(server, [this, server, trace_probe](bool confirmed) {
      trace_probe(obs::EventType::kProbeResult, confirmed ? 1 : 0);
      if (!confirmed) return;
      ++stats_.suspects_confirmed;
      if (c_confirmed_ != nullptr) c_confirmed_->inc();
      suspect_servers_[server.ip] =
          network_.sim().now() + config_.suspect_block_ttl;
    });
  });
}

void Gfw::applyDiscipline(Flow& flow) {
  switch (flow.cls) {
    case FlowClass::kTorTls:
      flow.drop_prob = config_.tor_discipline;
      break;
    case FlowClass::kHighEntropy:
      flow.drop_prob = config_.unknown_discipline;
      break;
    case FlowClass::kVpnPptp:
    case FlowClass::kVpnL2tp:
    case FlowClass::kOpenVpn:
      flow.drop_prob =
          config_.block_vpn_protocols ? config_.vpn_block_discipline : 0.0;
      break;
    default:
      flow.drop_prob = 0.0;
      break;
  }
}

void Gfw::classifyFlow(Flow& flow, const net::Packet& pkt, net::Link& link,
                       net::Direction dir) {
  ClassifierThresholds thresholds;
  thresholds.entropy_threshold_bits = config_.entropy_threshold_bits;
  thresholds.printable_benign_fraction = config_.printable_benign_fraction;
  thresholds.min_classify_bytes = config_.min_classify_bytes;

  dpi::Engine::Flags flags;
  FlowClass cls;
  if (pkt.isTcp()) {
    // One compiled pass feeds every inspector below: class decision, SNI /
    // Host keyword prefilters, Tor fingerprint, entropy statistics.
    refreshDpi();
    scanner_.scan(pkt.payload, &dpi_.automaton(), scan_);
    flags = dpi_.analyze(scan_, pkt.payload);
    cls = classifyScan(scan_, flags, pkt, thresholds);
  } else {
    cls = classifyNonTcp(pkt);
  }
  if (cls == FlowClass::kUnknown && pkt.isTcp()) return;  // wait for more data

  flow.classified = true;
  flow.cls = cls;
  ++stats_.flows_classified;
  if (c_classified_ != nullptr) c_classified_->inc();
  traceVerdict(pkt, "classifier", flowClassName(cls));
  ++class_counts_[cls];

  const bool outbound = dir == outbound_;
  const net::Endpoint server{outbound ? pkt.dst : pkt.src,
                             outbound ? pkt.dstPort() : pkt.srcPort()};

  switch (cls) {
    case FlowClass::kPlainHttp: {
      if (!config_.keyword_filtering) break;
      // host_candidate is the automaton prefilter (sound: no hit inside the
      // Host field means the exact suffix check cannot succeed); isBlocked
      // is the exact confirmation on the indexed blocklist.
      if (flags.host_candidate && domains_.isBlocked(scan_.http_host)) {
        traceVerdict(pkt, "http_keyword", "rst");
        injectRst(pkt, link, dir);
        flow.killed = true;
      }
      break;
    }
    case FlowClass::kTls:
    case FlowClass::kTorTls: {
      if (config_.tls_sni_filtering && flags.sni_candidate &&
          domains_.isBlocked(scan_.sni)) {
        traceVerdict(pkt, "tls_sni", "rst");
        injectRst(pkt, link, dir);
        flow.killed = true;
        break;
      }
      if (cls == FlowClass::kTorTls && config_.protocol_fingerprinting) {
        traceVerdict(pkt, "tls_fingerprint", "discipline");
        applyDiscipline(flow);
        if (!flow.probe_launched) {
          flow.probe_launched = true;
          scheduleProbe(server);
        }
      }
      break;
    }
    case FlowClass::kHighEntropy: {
      if (!config_.entropy_classification) break;
      if (!config_.throttle_all_unknown &&
          endpointIsRegisteredIcp(pkt, outbound)) {
        flow.lenient = true;
        ++stats_.leniency_granted;
        if (c_leniency_ != nullptr) c_leniency_->inc();
        traceVerdict(pkt, "entropy", "icp_leniency");
        break;
      }
      traceVerdict(pkt, "entropy", "throttle");
      applyDiscipline(flow);
      if (!flow.probe_launched) {
        flow.probe_launched = true;
        scheduleProbe(server);
      }
      break;
    }
    case FlowClass::kVpnPptp:
    case FlowClass::kVpnL2tp:
    case FlowClass::kOpenVpn:
      if (config_.protocol_fingerprinting) {
        traceVerdict(pkt, "protocol_fingerprint",
                     config_.block_vpn_protocols ? "block" : "pass");
        applyDiscipline(flow);
      }
      break;
    case FlowClass::kTextLike:
    default:
      break;
  }

  if (auto* sp = obs::spansOf(network_.sim())) {
    sp->setWhat(flow.span, flowClassName(cls));
    sp->end(flow.span,
            flow.killed ? obs::SpanStatus::kError : obs::SpanStatus::kOk,
            static_cast<std::int64_t>(cls));
  }
}

net::PacketFilter::Verdict Gfw::onPacket(net::Packet& pkt, net::Direction dir,
                                         net::Link& link) {
  ++stats_.packets_inspected;
  if (c_inspected_ != nullptr) c_inspected_->inc();
  const bool outbound = dir == outbound_;
  const sim::Time now = network_.sim().now();

  // 1. IP blocking.
  if (config_.ip_blocking &&
      (ips_.isBlocked(pkt.dst, now) || ips_.isBlocked(pkt.src, now))) {
    ++stats_.ip_blocked;
    if (c_ip_blocked_ != nullptr) c_ip_blocked_->inc();
    traceVerdict(pkt, "ip_blocklist", "drop");
    return Verdict::kDrop;
  }

  // 2. DNS poisoning (outbound queries only).
  if (config_.dns_poisoning && outbound && pkt.isUdp() &&
      pkt.udp().dst_port == dns::kDnsPort) {
    maybePoisonDns(pkt, link, dir);
  }

  // 3–5. Flow-level treatment.
  net::FiveTuple key = pkt.fiveTuple();
  if (!outbound) key = key.reversed();
  Flow& flow = flows_[key];
  if (flow.packets == 0) {
    // New border flow: traversal span runs until DPI reaches a verdict (the
    // client's tag parents it to the in-flight access, if any).
    if (auto* sp = obs::spansOf(network_.sim()))
      flow.span = sp->begin(obs::SpanKind::kGfwTraversal, pkt.measure_tag);
  }
  flow.last_seen = now;
  ++flow.packets;

  if (flow.killed) return Verdict::kDrop;

  if (!flow.classified && outbound && !pkt.payload.empty())
    classifyFlow(flow, pkt, link, dir);

  if (flow.killed) return Verdict::kDrop;

  // Confirmed-suspect servers get disciplined from the first packet of any
  // later flow, before DPI even sees a payload.
  if (!flow.lenient && flow.drop_prob == 0.0) {
    const net::Ipv4 server_ip = outbound ? pkt.dst : pkt.src;
    if (isSuspectServer(server_ip) &&
        !endpointIsRegisteredIcp(pkt, outbound)) {
      flow.drop_prob = config_.shadowsocks_discipline;
      traceVerdict(pkt, "active_probe", "discipline");
    }
  }

  if (flow.drop_prob > 0.0 && network_.sim().rng().chance(flow.drop_prob)) {
    ++stats_.disciplined_drops;
    if (c_disciplined_ != nullptr) c_disciplined_->inc();
    traceVerdict(pkt, "discipline", "drop");
    return Verdict::kDrop;
  }
  return Verdict::kPass;
}

}  // namespace sc::gfw
