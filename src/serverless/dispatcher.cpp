#include "serverless/dispatcher.h"

#include <string_view>

#include "http/tls.h"
#include "obs/hub.h"
#include "obs/span.h"
#include "obs/tracer.h"

namespace sc::serverless {

namespace {
// withStream retry cadence while nothing is pickable (endpoints may be
// cold-starting or mid-dial) — mirrors the fleet's pick loop.
constexpr int kPickRetries = 25;
constexpr sim::Time kPickRetryDelay = 200 * sim::kMillisecond;
// Liveness: sim-time tunnel pings, first-answer-wins against the timeout
// (a banned IP swallows the ping silently — the timeout IS the signal).
constexpr sim::Time kProbeInterval = 2 * sim::kSecond;
constexpr sim::Time kProbeTimeout = sim::kSecond;
// Consecutive failures (failed dial, missed pong, dead tunnel) before an
// endpoint is declared banned and retired.
constexpr int kBanThreshold = 2;
}  // namespace

FrontedDispatcher::FrontedDispatcher(transport::HostStack& stack,
                                     DispatcherOptions options,
                                     FunctionProvider& provider,
                                     CostModel* cost, std::uint32_t tag)
    : stack_(stack),
      options_(std::move(options)),
      provider_(provider),
      cost_(cost),
      tag_(tag),
      alive_(std::make_shared<bool>(true)) {
  provider_.setOnReady([this](int id) { dial(id); });
  provider_.setOnRetire([this](int id, std::string_view cause) {
    if (cause == "ttl") {
      drain(id);  // a reap is routine churn: let open streams finish
    } else {
      drop(id);  // a ban: the IP is dead
    }
  });
  // Endpoints that warmed before we were wired (provider constructed first,
  // cold starts are >= 150 ms, so normally none — but cheap to be exact).
  for (int id : provider_.readyIds()) dial(id);
  stack_.sim().schedule(kProbeInterval, [this, alive = alive_] {
    if (*alive) probeLoop();
  });
}

FrontedDispatcher::~FrontedDispatcher() {
  *alive_ = false;
  // Erase before closing, as everywhere: close handlers must find the conn
  // gone and not schedule redials into a dead dispatcher.
  std::map<int, Conn> doomed;
  doomed.swap(conns_);
  for (auto& [id, conn] : doomed)
    if (conn.tunnel != nullptr) conn.tunnel->close();
}

void FrontedDispatcher::dial(int id) {
  const FunctionProvider::Endpoint* ep = provider_.get(id);
  if (ep == nullptr) return;
  Conn& conn = conns_[id];
  if (conn.dialing || (conn.tunnel != nullptr && conn.tunnel->connected()))
    return;
  conn.dialing = true;

  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "fronted-dial",
                     ep->name);
  const net::Endpoint remote = ep->remote;
  stack_.directConnector(tag_)->connect(
      transport::ConnectTarget::byAddress(remote),
      [this, id, span, alive = alive_](transport::Stream::Ptr wire) {
        if (!*alive) {
          if (wire != nullptr) wire->close();
          return;
        }
        const auto it = conns_.find(id);
        if (it == conns_.end() || provider_.get(id) == nullptr) {
          if (wire != nullptr) wire->close();
          if (auto* sp = obs::spansOf(stack_.sim()))
            sp->end(span, obs::SpanStatus::kCancelled);
          return;  // endpoint retired while dialing
        }
        if (wire == nullptr) {
          // SYN retries exhausted — the signature of a banned IP. Count it
          // and (if the endpoint survives the verdict) retry in a second.
          it->second.dialing = false;
          if (auto* sp = obs::spansOf(stack_.sim()))
            sp->end(span, obs::SpanStatus::kError);
          noteFailure(id);
          if (provider_.get(id) != nullptr)
            stack_.sim().schedule(sim::kSecond, [this, id, alive = alive_] {
              if (*alive) dial(id);
            });
          return;
        }
        http::TlsClientOptions tls;
        tls.sni = options_.front_domain;  // the fronting: GFW sees only this
        tls.fingerprint = options_.tls_fingerprint;
        // No ticket cache: a ticket minted by one ephemeral endpoint would
        // not validate on its replacement, and a resumption attempt is a
        // distinguishable wire artifact we do not want per endpoint churn.
        tls.allow_resumption = false;
        http::TlsStream::clientHandshake(
            std::move(wire), stack_.sim(), std::move(tls), nullptr,
            [this, id, span, alive = alive_](http::TlsStream::Ptr tls_stream) {
              if (!*alive) return;
              const auto conn_it = conns_.find(id);
              if (conn_it == conns_.end() || provider_.get(id) == nullptr) {
                if (tls_stream != nullptr) tls_stream->close();
                if (auto* sp = obs::spansOf(stack_.sim()))
                  sp->end(span, obs::SpanStatus::kCancelled);
                return;
              }
              conn_it->second.dialing = false;
              if (tls_stream == nullptr) {
                if (auto* sp = obs::spansOf(stack_.sim()))
                  sp->end(span, obs::SpanStatus::kError);
                noteFailure(id);
                if (provider_.get(id) != nullptr)
                  stack_.sim().schedule(sim::kSecond,
                                        [this, id, alive = alive_] {
                                          if (*alive) dial(id);
                                        });
                return;
              }
              core::Tunnel::Options topts;
              topts.secret = options_.tunnel_secret;
              topts.blinding_mode = options_.blinding_mode;
              topts.client_side = true;
              auto tunnel = core::Tunnel::create(std::move(tls_stream),
                                                 stack_.sim(),
                                                 std::move(topts));
              tunnel->setOnClose([this, id, alive = alive_] {
                if (!*alive) return;
                const auto live = conns_.find(id);
                if (live == conns_.end()) return;  // retired: no redial
                if (live->second.draining) {
                  conns_.erase(live);  // reaped: nothing to redial
                  return;
                }
                live->second.tunnel = nullptr;
                noteFailure(id);
                if (provider_.get(id) != nullptr)
                  stack_.sim().schedule(sim::kSecond,
                                        [this, id, alive = alive_] {
                                          if (*alive) dial(id);
                                        });
              });
              conn_it->second.tunnel = std::move(tunnel);
              if (auto* sp = obs::spansOf(stack_.sim()))
                sp->end(span, obs::SpanStatus::kOk);
            });
      });
}

void FrontedDispatcher::drain(int id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.tunnel == nullptr || !conn.tunnel->connected() ||
      conn.tunnel->openStreams() == 0) {
    drop(id);
    return;
  }
  conn.draining = true;
  conn.tunnel->setOnIdle([this, id, alive = alive_] {
    if (*alive) drop(id);
  });
  stack_.sim().schedule(core::kProxiedRequestTimeout,
                        [this, id, alive = alive_] {
                          if (*alive) drop(id);
                        });
}

void FrontedDispatcher::drop(int id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  core::Tunnel::Ptr tunnel = std::move(it->second.tunnel);
  conns_.erase(it);  // the close handler below sees the conn gone
  if (tunnel != nullptr) tunnel->close();
}

void FrontedDispatcher::noteFailure(int id) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.draining) return;
  ++failures_;
  const int count = ++it->second.failures;
  const FunctionProvider::Endpoint* ep = provider_.get(id);
  trace("fail", ep == nullptr ? "" : ep->name, id);
  if (count >= kBanThreshold)
    provider_.retire(id, "ban");  // fires drop(id) via onRetire
}

void FrontedDispatcher::probeLoop() {
  onBlocklistChurn();  // the same sweep: ping every live, undrained tunnel
  stack_.sim().schedule(kProbeInterval, [this, alive = alive_] {
    if (*alive) probeLoop();
  });
}

void FrontedDispatcher::probeConn(int id) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.tunnel == nullptr ||
      !it->second.tunnel->connected())
    return;
  // First answer wins: pong before the deadline passes, the deadline firing
  // first fails (a banned wire swallows the ping silently).
  auto settled = std::make_shared<bool>(false);
  it->second.tunnel->ping([this, id, settled, alive = alive_] {
    if (*settled) return;
    *settled = true;
    if (!*alive) return;
    const auto live = conns_.find(id);
    if (live != conns_.end()) live->second.failures = 0;
  });
  stack_.sim().schedule(kProbeTimeout,
                        [this, id, settled, alive = alive_] {
                          if (*settled) return;
                          *settled = true;
                          if (*alive) noteFailure(id);
                        });
}

void FrontedDispatcher::onBlocklistChurn() {
  for (const auto& [id, conn] : conns_)
    if (conn.tunnel != nullptr && conn.tunnel->connected() && !conn.draining)
      probeConn(id);
}

void FrontedDispatcher::rotateBlinding(std::uint32_t new_epoch) {
  for (auto& [id, conn] : conns_)
    if (conn.tunnel != nullptr) conn.tunnel->rotateBlinding(new_epoch);
}

void FrontedDispatcher::withStream(net::Ipv4 client,
                                   const transport::ConnectTarget& target,
                                   bool passthrough, StreamHandler fn) {
  (void)client;  // no affinity: any live endpoint serves any client
  obs::SpanId span = 0;
  if (auto* sp = obs::spansOf(stack_.sim()))
    span = sp->begin(obs::SpanKind::kProxyHop, tag_, "fn-pick");
  tryPick(target, passthrough,
          [this, span, fn = std::move(fn)](transport::Stream::Ptr stream) {
            if (auto* sp = obs::spansOf(stack_.sim()))
              sp->end(span, stream != nullptr ? obs::SpanStatus::kOk
                                              : obs::SpanStatus::kError);
            fn(std::move(stream));
          },
          kPickRetries);
}

void FrontedDispatcher::tryPick(transport::ConnectTarget target,
                                bool passthrough, StreamHandler fn,
                                int retries_left) {
  const std::vector<int> ready = provider_.readyIds();
  if (!ready.empty()) {
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const std::size_t idx = (next_pick_ + i) % ready.size();
      const int id = ready[idx];
      const auto it = conns_.find(id);
      if (it == conns_.end() || it->second.tunnel == nullptr ||
          !it->second.tunnel->connected())
        continue;
      transport::Stream::Ptr stream =
          it->second.tunnel->openStream(target, passthrough);
      if (stream == nullptr) continue;
      next_pick_ = idx + 1;
      if (cost_ != nullptr) cost_->invocation();
      const FunctionProvider::Endpoint* ep = provider_.get(id);
      trace("invoke", ep == nullptr ? "" : ep->name, id);
      fn(std::move(stream));
      return;
    }
  }
  // Nothing pickable. Spawn on demand — but only when no endpoint is
  // already cold-starting, so a burst of retries provisions one function,
  // not one per 200 ms tick.
  const int pending = provider_.liveCount() - static_cast<int>(ready.size());
  if (pending == 0) provider_.spawn("demand");
  if (retries_left <= 0) {
    ++starvations_;
    trace("starved", "", -1);
    fn(nullptr);
    return;
  }
  stack_.sim().schedule(
      kPickRetryDelay,
      [this, target = std::move(target), passthrough, fn = std::move(fn),
       retries_left, alive = alive_]() mutable {
        if (!*alive) {
          fn(nullptr);
          return;
        }
        tryPick(std::move(target), passthrough, std::move(fn),
                retries_left - 1);
      });
}

int FrontedDispatcher::connectedCount() const {
  int n = 0;
  for (const auto& [id, conn] : conns_)
    if (conn.tunnel != nullptr && conn.tunnel->connected()) ++n;
  return n;
}

void FrontedDispatcher::trace(const char* what, const std::string& detail,
                              std::int64_t a) {
  obs::Tracer* tracer = obs::tracerOf(stack_.sim());
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = stack_.sim().now();
  ev.type = obs::EventType::kServerlessDispatch;
  ev.what = what;
  ev.detail = detail;
  ev.tag = tag_;
  ev.a = a;
  tracer->record(std::move(ev));
}

}  // namespace sc::serverless
