#include "serverless/provider.h"

#include "obs/hub.h"
#include "obs/tracer.h"

namespace sc::serverless {

namespace {
constexpr std::uint64_t kProviderRngLabel = 0x5e'41'e5'50ULL;
}  // namespace

FunctionProvider::FunctionProvider(sim::Simulator& sim,
                                   ProviderOptions options, SpawnFn spawn,
                                   CostModel* cost, std::uint32_t tag)
    : sim_(sim),
      options_(std::move(options)),
      spawn_(std::move(spawn)),
      cost_(cost),
      tag_(tag),
      rng_(sim.rng().fork(kProviderRngLabel)) {
  for (int i = 0; i < options_.prewarm; ++i)
    if (this->spawn("prewarm") < 0) break;
}

int FunctionProvider::spawn(const char* cause) {
  if (static_cast<int>(endpoints_.size()) >= options_.max_live) return -1;
  // Static baseline: nothing gets provisioned after the pre-warm set.
  if (!options_.respawn && std::string_view(cause) != "prewarm") return -1;
  const int id = next_seq_;
  std::optional<FunctionSpawn> provisioned = spawn_(id);
  if (!provisioned.has_value()) return -1;
  ++next_seq_;
  ++spawns_;

  Endpoint ep;
  ep.id = id;
  ep.remote = provisioned->endpoint;
  ep.name = std::move(provisioned->name);
  ep.spawned_at = sim_.now();
  constexpr auto window =
      static_cast<std::uint64_t>(kColdStartMax - kColdStartMin);
  const sim::Time cold =
      kColdStartMin + static_cast<sim::Time>(rng_.uniformU64(window + 1));
  ep.ready_at = ep.spawned_at + cold;
  if (obs::SpanTracer* spans = obs::spansOf(sim_))
    ep.cold_span = spans->begin(obs::SpanKind::kColdStart, tag_, cause, ep.name);
  trace("spawn", ep.name, id);
  if (cost_ != nullptr) {
    cost_->endpointStarted(id);
    cost_->coldStart(cold);
  }
  endpoints_.emplace(id, std::move(ep));

  sim_.schedule(cold, [this, id] {
    const auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;  // retired while cold-starting
    it->second.ready = true;
    trace("warm", it->second.name, id);
    if (obs::SpanTracer* spans = obs::spansOf(sim_))
      spans->end(it->second.cold_span, obs::SpanStatus::kOk);
    if (options_.ttl > 0) {
      sim_.schedule(options_.ttl, [this, id] {
        if (endpoints_.find(id) == endpoints_.end()) return;
        ++reaps_;
        retire(id, "ttl");
      });
    }
    if (on_ready_) on_ready_(id);
  });
  return id;
}

void FunctionProvider::retire(int id, const char* cause) {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  ++retires_;
  trace("retire", it->second.name + ":" + cause, id);
  if (obs::SpanTracer* spans = obs::spansOf(sim_))
    spans->end(it->second.cold_span, obs::SpanStatus::kCancelled);
  if (cost_ != nullptr) {
    cost_->endpointStopped(id);
    if (std::string_view(cause) == "ban") cost_->ban();
  }
  // Erase before notifying: the dispatcher's onRetire severs the tunnel,
  // whose close handler must not see the endpoint as still live.
  endpoints_.erase(it);
  if (on_retire_) on_retire_(id, cause);
  if (options_.respawn) ensureFloor();
}

void FunctionProvider::ensureFloor() {
  while (static_cast<int>(endpoints_.size()) < options_.prewarm)
    if (spawn("respawn") < 0) break;
}

const FunctionProvider::Endpoint* FunctionProvider::get(int id) const {
  const auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : &it->second;
}

std::vector<int> FunctionProvider::readyIds() const {
  std::vector<int> out;
  for (const auto& [id, ep] : endpoints_)
    if (ep.ready) out.push_back(id);
  return out;  // std::map iteration order: ascending, deterministic
}

std::optional<int> FunctionProvider::idFor(net::Ipv4 ip) const {
  for (const auto& [id, ep] : endpoints_)
    if (ep.remote.ip == ip) return id;
  return std::nullopt;
}

void FunctionProvider::trace(const char* what, const std::string& detail,
                             std::int64_t a) {
  obs::Tracer* tracer = obs::tracerOf(sim_);
  if (tracer == nullptr) return;
  obs::Event ev;
  ev.at = sim_.now();
  ev.type = obs::EventType::kServerlessLifecycle;
  ev.what = what;
  ev.detail = detail;
  ev.tag = tag_;
  ev.a = a;
  tracer->record(std::move(ev));
}

}  // namespace sc::serverless
