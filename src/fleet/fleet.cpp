#include "fleet/fleet.h"

#include <algorithm>
#include <utility>

#include "http/tls.h"

namespace sc::fleet {

namespace {

// An unanswered health ping after this long is a failure.
constexpr sim::Time kProbeTimeout = sim::kSecond;
// withStream retries while no endpoint has a stream to give: its tunnels
// may be mid-dial, or the endpoint mid-respawn.
constexpr int kPickRetries = 25;
constexpr sim::Time kPickRetryDelay = 200 * sim::kMillisecond;

// Decorates a tunnel stream so the balancer lease is returned exactly once,
// whichever side closes first (domestic proxy after a fetch, or the wire
// dying under the stream). Not on destruction: a destructor touches no
// fleet state.
class LeasedStream final : public transport::Stream,
                           public std::enable_shared_from_this<LeasedStream> {
 public:
  static std::shared_ptr<LeasedStream> make(transport::Stream::Ptr inner,
                                            std::function<void()> release) {
    auto s = std::shared_ptr<LeasedStream>(
        new LeasedStream(std::move(inner), std::move(release)));
    std::weak_ptr<LeasedStream> weak = s;
    s->inner_->setOnData([weak](ByteView data) {
      if (auto self = weak.lock()) self->emitData(data);
    });
    s->inner_->setOnClose([weak] {
      if (auto self = weak.lock()) {
        self->releaseOnce();
        self->emitClose();
      }
    });
    return s;
  }

  void send(Bytes data) override { inner_->send(std::move(data)); }
  void close() override {
    releaseOnce();
    inner_->close();
  }
  bool connected() const override { return inner_->connected(); }

 private:
  LeasedStream(transport::Stream::Ptr inner, std::function<void()> release)
      : inner_(std::move(inner)), release_(std::move(release)) {}

  void releaseOnce() {
    if (released_) return;
    released_ = true;
    if (release_) release_();
  }

  transport::Stream::Ptr inner_;
  std::function<void()> release_;
  bool released_ = false;
};

}  // namespace

Fleet::Fleet(transport::HostStack& stack, FleetOptions options, SpawnFn spawn,
             std::uint32_t tag)
    : stack_(stack),
      options_(std::move(options)),
      spawn_(std::move(spawn)),
      tag_(tag),
      prober_(stack.sim(), options_.health,
              [this](int id, std::function<void(bool)> done) {
                probeEndpoint(id, std::move(done));
              }) {
  if (obs::Registry* reg = obs::registryOf(stack_.sim())) {
    g_active_ = reg->gauge("sc.fleet.active_streams");
    g_size_ = reg->gauge("sc.fleet.size");
    c_respawns_ = reg->counter("sc.fleet.respawns");
    c_failovers_ = reg->counter("sc.fleet.failovers");
    c_pool_saturation_ = reg->counter("sc.domestic.pool_saturation");
  }
  prober_.setOnStateChange([this](int id, Health from, Health to) {
    onHealthChange(id, from, to);
  });
  if (options_.enable_cache)
    cache_ = std::make_unique<ShardedLruCache>(stack_.sim(), options_.cache);
  for (int i = 0; i < options_.initial_size; ++i) addEndpoint();
  if (options_.autoscale) {
    autoscaler_ = std::make_unique<Autoscaler>(
        stack_.sim(), options_.autoscaler, [this] { return size(); },
        [this](int delta) {
          if (delta > 0)
            scaleUp();
          else
            scaleDown();
        });
    autoscaler_->start();
  }
}

Fleet::~Fleet() {
  *alive_ = false;
  // Erase before closing: tunnel close handlers look the endpoint up and
  // must not schedule redials into a dead fleet.
  std::map<int, Endpoint> doomed;
  doomed.swap(endpoints_);
  for (auto& [id, ep] : doomed) {
    prober_.unwatch(id);
    for (auto& tunnel : ep.tunnels)
      if (tunnel != nullptr) tunnel->close();
  }
  for (auto& tunnel : std::exchange(draining_, {})) tunnel->close();
}

bool Fleet::addEndpoint() {
  if (spawn_ == nullptr) return false;
  const int id = next_seq_;
  const auto spawned = spawn_(id);
  if (!spawned.has_value()) return false;
  ++next_seq_;
  Endpoint& ep = endpoints_[id];
  ep.remote = spawned->endpoint;
  ep.name = spawned->name;
  ep.sni = spawned->sni;
  ep.tunnels.resize(
      static_cast<std::size_t>(std::max(1, options_.tunnels_per_endpoint)));
  balancer_.addBackend(id);
  // A fronted endpoint joins the picks once its first tunnel is up: its
  // handshake waits out the function's cold start (up to 900 ms), and a
  // pick before then would fail it over and probe it toward a ban. A plain
  // endpoint is pickable at once; its dial is one round trip.
  if (!ep.sni.empty()) balancer_.setAvailable(id, false);
  prober_.watch(id);
  for (std::size_t slot = 0; slot < ep.tunnels.size(); ++slot)
    ensureTunnel(id, slot);
  if (g_size_ != nullptr) g_size_->set(static_cast<double>(size()));
  return true;
}

void Fleet::ensureTunnel(int id, std::size_t slot) {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "sc-mux",
                     it->second.remote.str());
  auto direct = stack_.directConnector(tag_);
  direct->connect(
      transport::ConnectTarget::byAddress(it->second.remote),
      [this, id, slot, span, alive = alive_](transport::Stream::Ptr wire) {
        if (!*alive) {
          if (wire != nullptr) wire->close();
          return;
        }
        const auto ep = endpoints_.find(id);
        if (wire == nullptr || ep == endpoints_.end() ||
            ep->second.sni.empty()) {
          onDialed(id, slot, span, std::move(wire));
          return;
        }
        // Fronted: the border sees only the SNI and the default (stock
        // browser) fingerprint. No resumption: a ticket one ephemeral
        // endpoint minted would not validate on its replacement.
        http::TlsClientOptions tls;
        tls.sni = ep->second.sni;
        tls.allow_resumption = false;
        http::TlsStream::clientHandshake(
            std::move(wire), stack_.sim(), std::move(tls), nullptr,
            [this, id, slot, span, alive](http::TlsStream::Ptr stream) {
              if (!*alive) {
                if (stream != nullptr) stream->close();
                return;
              }
              onDialed(id, slot, span, std::move(stream));
            });
      });
}

void Fleet::onDialed(int id, std::size_t slot, obs::SpanId span,
                     transport::Stream::Ptr wire) {
  if (auto* sp = obs::spansOf(stack_.sim()))
    sp->end(span,
            wire != nullptr ? obs::SpanStatus::kOk : obs::SpanStatus::kError);
  const auto ep = endpoints_.find(id);
  if (ep == endpoints_.end()) {
    if (wire != nullptr) wire->close();
    return;  // endpoint retired while dialing
  }
  if (wire == nullptr) {
    stack_.sim().schedule(5 * sim::kSecond, [this, id, slot, alive = alive_] {
      if (*alive) ensureTunnel(id, slot);
    });
    return;
  }
  core::Tunnel::Options topts;
  topts.secret = options_.tunnel_secret;
  topts.blinding_mode = options_.blinding_mode;
  topts.client_side = true;
  auto tunnel =
      core::Tunnel::create(std::move(wire), stack_.sim(), std::move(topts));
  if (blinding_epoch_ != 0) tunnel->rotateBlinding(blinding_epoch_);
  tunnel->setOnClose([this, id, slot, alive = alive_] {
    if (!*alive) return;
    const auto live = endpoints_.find(id);
    if (live == endpoints_.end()) return;  // retired: no redial
    live->second.tunnels[slot] = nullptr;
    stack_.sim().schedule(sim::kSecond, [this, id, slot, alive] {
      if (*alive) ensureTunnel(id, slot);
    });
  });
  ep->second.tunnels[slot] = std::move(tunnel);
  if (!ep->second.sni.empty() && prober_.state(id) == Health::kUnknown)
    balancer_.setAvailable(id, true);
}

core::Tunnel::Ptr Fleet::connectedTunnel(Endpoint& ep) {
  for (std::size_t i = 0; i < ep.tunnels.size(); ++i) {
    const std::size_t idx = (ep.next_tunnel + i) % ep.tunnels.size();
    if (ep.tunnels[idx] != nullptr && ep.tunnels[idx]->connected()) {
      ep.next_tunnel = idx + 1;
      return ep.tunnels[idx];
    }
  }
  return nullptr;
}

void Fleet::probeEndpoint(int id, std::function<void(bool)> done) {
  const auto it = endpoints_.find(id);
  core::Tunnel::Ptr tunnel =
      it == endpoints_.end() ? nullptr : connectedTunnel(it->second);
  if (tunnel == nullptr) {
    done(false);
    return;
  }
  // First answer wins: pong before the deadline is a pass, the deadline
  // firing first is a fail (a GFW-blocked wire swallows the ping silently).
  auto settled = std::make_shared<bool>(false);
  tunnel->ping([settled, done, alive = alive_] {
    if (*settled || !*alive) return;
    *settled = true;
    done(true);
  });
  stack_.sim().schedule(kProbeTimeout, [settled, done, alive = alive_] {
    if (*settled || !*alive) return;
    *settled = true;
    done(false);
  });
}

void Fleet::onHealthChange(int id, Health from, Health to) {
  (void)from;
  const auto it = endpoints_.find(id);
  const std::string name = it == endpoints_.end() ? "" : it->second.name;
  trace(obs::EventType::kFleetProbe, healthName(to), name,
        prober_.consecutiveFailures(id));
  switch (to) {
    case Health::kHealthy:
      balancer_.setAvailable(id, true);
      break;
    case Health::kDegraded:
      // Fail fast: one missed probe stops new picks; in-flight streams
      // drain. Recovery is one successful probe away.
      balancer_.setAvailable(id, false);
      break;
    case Health::kDown:
      // CensorLess-style rotation: a banned IP is dead, so cut at once.
      retire(id, /*respawn=*/true, /*drain=*/false, /*down=*/true);
      break;
    case Health::kUnknown:
      break;
  }
}

void Fleet::retireEndpoint(int id, bool respawn, bool drain) {
  retire(id, respawn, drain, /*down=*/false);
}

void Fleet::retire(int id, bool respawn, bool drain, bool down) {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  const std::string name = std::move(it->second.name);
  std::vector<core::Tunnel::Ptr> tunnels = std::move(it->second.tunnels);
  balancer_.removeBackend(id);
  prober_.unwatch(id);
  endpoints_.erase(it);  // close handlers below see the endpoint gone
  for (auto& tunnel : tunnels) {
    if (tunnel == nullptr) continue;
    if (drain && tunnel->connected() && tunnel->openStreams() > 0)
      this->drain(std::move(tunnel));
    else
      tunnel->close();
  }
  trace(obs::EventType::kFleetFailover, "retired", name, id);
  if (g_size_ != nullptr) g_size_->set(static_cast<double>(size()));
  if (on_retire_) on_retire_(id, down);
  if (respawn && addEndpoint()) {
    ++respawns_;
    if (c_respawns_ != nullptr) c_respawns_->inc();
    trace(obs::EventType::kFleetScale, "respawn", name, size());
  }
}

void Fleet::drain(core::Tunnel::Ptr tunnel) {
  // Closes once, at the first of: the last stream ending, the deadline.
  // Weak: the tunnel holds this closure as its idle handler.
  const auto close = [this, weak = std::weak_ptr(tunnel), alive = alive_] {
    const core::Tunnel::Ptr doomed = weak.lock();
    if (!*alive || doomed == nullptr) return;
    const auto it = std::ranges::find(draining_, doomed);
    if (it == draining_.end()) return;  // already closed
    draining_.erase(it);
    doomed->close();
  };
  tunnel->setOnIdle(close);
  stack_.sim().schedule(core::kProxiedRequestTimeout, close);
  draining_.push_back(std::move(tunnel));
}

bool Fleet::crashEndpoint(int id) {
  if (endpoints_.empty()) return false;
  if (id < 0) id = endpoints_.begin()->first;
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return false;
  trace(obs::EventType::kFleetScale, "crash", it->second.name, id);
  // A local Tunnel::close() fires no onClose, so the dead tunnels stay in
  // their slots and nothing redials: the prober finds no connected tunnel
  // and walks the endpoint to kDown -> retire + respawn.
  for (auto& tunnel : it->second.tunnels) {
    if (tunnel != nullptr) {
      auto doomed = tunnel;  // keep alive while its streams' handlers run
      doomed->close();
    }
  }
  return true;
}

bool Fleet::scaleUp() {
  if (!addEndpoint()) return false;
  trace(obs::EventType::kFleetScale, "up", "", size());
  return true;
}

bool Fleet::scaleDown() {
  if (endpoints_.size() <= 1) return false;
  // Retire the least-loaded endpoint (ties: the newest — its affinity set
  // is the smallest, so draining disturbs the fewest sessions).
  int victim = -1;
  int victim_active = 0;
  for (const auto& [id, ep] : endpoints_) {
    const int active = balancer_.active(id);
    if (victim == -1 || active <= victim_active) {
      victim = id;
      victim_active = active;
    }
  }
  if (victim == -1) return false;
  retireEndpoint(victim, /*respawn=*/false);
  trace(obs::EventType::kFleetScale, "down", "", size());
  return true;
}

std::vector<net::Endpoint> Fleet::liveEndpoints() const {
  std::vector<net::Endpoint> out;
  out.reserve(endpoints_.size());
  for (const auto& [id, ep] : endpoints_) out.push_back(ep.remote);
  return out;
}

std::optional<int> Fleet::endpointIdFor(net::Ipv4 ip) const {
  for (const auto& [id, ep] : endpoints_)
    if (ep.remote.ip == ip) return id;
  return std::nullopt;
}

std::vector<core::Tunnel::Ptr> Fleet::connectedTunnels() const {
  std::vector<core::Tunnel::Ptr> out;
  for (const auto& [id, ep] : endpoints_)
    for (const auto& tunnel : ep.tunnels)
      if (tunnel != nullptr && tunnel->connected()) out.push_back(tunnel);
  for (const auto& tunnel : draining_)
    if (tunnel->connected()) out.push_back(tunnel);
  return out;
}

void Fleet::withStream(net::Ipv4 client,
                       const transport::ConnectTarget& target,
                       bool passthrough, StreamHandler fn) {
  // Span covers pick + failover + retry waits until a stream (or nullptr)
  // reaches the caller — the full server-side proxy-hop cost.
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kProxyHop, tag_, "fleet-pick");
  tryPick(client, target, passthrough,
          [this, span, fn = std::move(fn)](transport::Stream::Ptr stream) {
            if (auto* sp = obs::spansOf(stack_.sim()))
              sp->end(span, stream != nullptr ? obs::SpanStatus::kOk
                                              : obs::SpanStatus::kError);
            fn(std::move(stream));
          },
          kPickRetries);
}

void Fleet::tryPick(net::Ipv4 client, transport::ConnectTarget target,
                    bool passthrough, StreamHandler fn, int retries_left) {
  // Bounded pass over the backends: a pick whose endpoint has no live
  // tunnel marks it unavailable (and probes it immediately), then picks
  // again — that is the failover path.
  const std::size_t max_attempts = balancer_.size() + 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const auto id = balancer_.pick(client);
    if (!id.has_value()) break;
    const auto it = endpoints_.find(*id);
    core::Tunnel::Ptr tunnel =
        it == endpoints_.end() ? nullptr : connectedTunnel(it->second);
    transport::Stream::Ptr raw =
        tunnel == nullptr ? nullptr : tunnel->openStream(target, passthrough);
    if (raw == nullptr) {
      balancer_.release(*id);
      balancer_.setAvailable(*id, false);
      prober_.probeNow(*id);
      ++failovers_;
      if (c_failovers_ != nullptr) c_failovers_->inc();
      trace(obs::EventType::kFleetFailover, "pick",
            it == endpoints_.end() ? "" : it->second.name, *id);
      continue;
    }
    noteAcquire(*id);
    const int leased = *id;
    fn(LeasedStream::make(std::move(raw),
                          [this, leased] { noteRelease(leased); }));
    return;
  }
  if (retries_left <= 0) {
    fn(nullptr);
    return;
  }
  // No endpoint had a stream to give: count the wait before retrying.
  if (c_pool_saturation_ != nullptr) c_pool_saturation_->inc();
  trace(obs::EventType::kPoolSaturation, "fleet-pick", "", retries_left);
  stack_.sim().schedule(
      kPickRetryDelay,
      [this, client, target = std::move(target), passthrough,
       fn = std::move(fn), retries_left, alive = alive_]() mutable {
        if (!*alive) return;
        tryPick(client, std::move(target), passthrough, std::move(fn),
                retries_left - 1);
      });
}

void Fleet::rotateBlinding(std::uint32_t new_epoch) {
  blinding_epoch_ = new_epoch;
  for (auto& [id, ep] : endpoints_)
    for (auto& tunnel : ep.tunnels)
      if (tunnel != nullptr) tunnel->rotateBlinding(new_epoch);
  for (auto& tunnel : draining_) tunnel->rotateBlinding(new_epoch);
}

std::optional<int> Fleet::leaseBackgroundSlot(net::Ipv4 client) {
  const auto id = balancer_.pick(client);
  if (!id.has_value()) return std::nullopt;
  noteAcquire(*id);
  return id;
}

void Fleet::releaseBackgroundSlot(int id) { noteRelease(id); }

void Fleet::noteAcquire(int id) {
  (void)id;
  ++active_streams_;
  if (g_active_ != nullptr)
    g_active_->set(static_cast<double>(active_streams_));
}

void Fleet::noteRelease(int id) {
  balancer_.release(id);
  if (active_streams_ > 0) --active_streams_;
  if (g_active_ != nullptr)
    g_active_->set(static_cast<double>(active_streams_));
}

void Fleet::trace(obs::EventType type, const char* what,
                  const std::string& detail, std::int64_t a) {
  obs::Tracer* tracer = obs::tracerOf(stack_.sim());
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = stack_.sim().now();
  ev.type = type;
  ev.what = what;
  ev.detail = detail;
  ev.tag = tag_;
  ev.a = a;
  tracer->record(std::move(ev));
}

}  // namespace sc::fleet
