#include "serverless/provider.h"

#include "obs/hub.h"

namespace sc::serverless {

namespace {
constexpr std::uint64_t kProviderRngLabel = 0x5e'41'e5'50ULL;
}  // namespace

FunctionProvider::FunctionProvider(sim::Simulator& sim,
                                   ProviderOptions options,
                                   ProvisionFn provision, CostModel* cost,
                                   std::uint32_t tag)
    : sim_(sim),
      options_(std::move(options)),
      provision_(std::move(provision)),
      cost_(cost),
      tag_(tag),
      rng_(sim.rng().fork(kProviderRngLabel)) {}

std::optional<fleet::EndpointSpawn> FunctionProvider::spawn(int seq) {
  // Static baseline: nothing gets provisioned after the pre-warm set.
  if (!options_.respawn &&
      spawns_ >= static_cast<std::uint64_t>(options_.prewarm))
    return std::nullopt;
  constexpr auto window =
      static_cast<std::uint64_t>(kColdStartMax - kColdStartMin);
  const sim::Time cold =
      kColdStartMin + static_cast<sim::Time>(rng_.uniformU64(window + 1));
  std::optional<fleet::EndpointSpawn> provisioned =
      provision_(seq, sim_.now() + cold);
  if (!provisioned.has_value()) return std::nullopt;
  ++spawns_;
  Endpoint ep;
  ep.name = provisioned->name;
  if (obs::SpanTracer* spans = obs::spansOf(sim_))
    ep.cold_span = spans->begin(obs::SpanKind::kColdStart, tag_, "spawn",
                                ep.name);
  trace("spawn", ep.name, seq);
  if (cost_ != nullptr) {
    cost_->endpointStarted(seq);
    cost_->coldStart(cold);
  }
  endpoints_.emplace(seq, std::move(ep));

  sim_.schedule(cold, [this, seq] {
    const auto it = endpoints_.find(seq);
    if (it == endpoints_.end()) return;  // retired while cold-starting
    trace("warm", it->second.name, seq);
    if (obs::SpanTracer* spans = obs::spansOf(sim_))
      spans->end(it->second.cold_span, obs::SpanStatus::kOk);
    if (options_.ttl > 0)
      sim_.schedule(options_.ttl, [this, seq] { reap(seq); });
  });
  return provisioned;
}

void FunctionProvider::serve(fleet::Fleet& fleet) {
  fleet_ = &fleet;
  fleet.setOnRetire([this](int id, bool down) { retired(id, down); });
}

void FunctionProvider::reap(int id) {
  if (fleet_ == nullptr || !endpoints_.contains(id)) return;
  ++reaps_;
  fleet_->retireEndpoint(id, /*respawn=*/true, /*drain=*/true);
}

void FunctionProvider::retired(int id, bool banned) {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  trace("retire", it->second.name + (banned ? ":ban" : ":ttl"), id);
  if (obs::SpanTracer* spans = obs::spansOf(sim_))
    spans->end(it->second.cold_span, obs::SpanStatus::kCancelled);
  if (cost_ != nullptr) {
    cost_->endpointStopped(id);
    if (banned) cost_->ban();
  }
  endpoints_.erase(it);
}

const FunctionProvider::Endpoint* FunctionProvider::get(int id) const {
  const auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : &it->second;
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
