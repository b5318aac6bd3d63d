#include "fleet/health.h"

namespace sc::fleet {

namespace {
// First retry after a failure; each further failure doubles it.
constexpr sim::Time kBackoffBase = sim::kSecond;
}  // namespace

const char* healthName(Health h) {
  switch (h) {
    case Health::kUnknown: return "unknown";
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kDown: return "down";
  }
  return "?";
}

HealthProber::HealthProber(sim::Simulator& sim, HealthProberOptions options,
                           ProbeFn probe)
    : sim_(sim), options_(std::move(options)), probe_(std::move(probe)) {
  if (options_.fail_threshold < 1) options_.fail_threshold = 1;
}

void HealthProber::watch(int id) {
  Watched& w = watched_[id];  // re-watching resets the probe clock
  // Kill any probe still pending from the previous life of this id: without
  // this, a backoff-delayed probe scheduled before a respawn keeps firing
  // alongside the fresh chain (it reads the *current* generation at fire
  // time), doubling probe traffic and dragging stale backoff across lives.
  w.timer.cancel();
  w.health = Health::kUnknown;
  w.failures = 0;
  ++w.generation;
  scheduleProbe(id, options_.interval);
}

void HealthProber::unwatch(int id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  it->second.timer.cancel();
  ++it->second.generation;  // orphan any in-flight done()
  watched_.erase(it);
}

void HealthProber::probeNow(int id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  it->second.timer.cancel();
  scheduleProbe(id, 0);
}

void HealthProber::probeAllNow() {
  for (auto& [id, w] : watched_) {
    w.timer.cancel();
    scheduleProbe(id, 0);
  }
}

Health HealthProber::state(int id) const {
  const auto it = watched_.find(id);
  return it == watched_.end() ? Health::kUnknown : it->second.health;
}

int HealthProber::consecutiveFailures(int id) const {
  const auto it = watched_.find(id);
  return it == watched_.end() ? 0 : it->second.failures;
}

void HealthProber::scheduleProbe(int id, sim::Time delay) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  // Overwriting an EventHandle does not cancel the event it names; do it
  // explicitly so each watched id carries at most one pending probe.
  it->second.timer.cancel();
  it->second.timer = sim_.schedule(delay, [this, id] { fireProbe(id); });
}

void HealthProber::fireProbe(int id) {
  const auto it = watched_.find(id);
  if (it == watched_.end()) return;
  ++probes_sent_;
  const std::uint64_t generation = it->second.generation;
  probe_(id, [this, id, generation](bool ok) {
    onProbeDone(id, generation, ok);
  });
}

void HealthProber::onProbeDone(int id, std::uint64_t generation, bool ok) {
  const auto it = watched_.find(id);
  if (it == watched_.end() || it->second.generation != generation) return;
  Watched& w = it->second;
  if (ok) {
    w.failures = 0;
    transition(id, w, Health::kHealthy);
    scheduleProbe(id, options_.interval);  // no-op if the handler unwatched
    return;
  }
  ++w.failures;
  const int failures = w.failures;
  transition(id, w,
             failures >= options_.fail_threshold ? Health::kDown
                                                 : Health::kDegraded);
  // The state handler may have retired (unwatched) the endpoint; `w` is
  // dead then and scheduleProbe below degrades to a no-op.
  sim::Time backoff = kBackoffBase;
  for (int i = 1; i < failures && backoff < options_.backoff_max; ++i)
    backoff *= 2;
  if (backoff > options_.backoff_max) backoff = options_.backoff_max;
  scheduleProbe(id, backoff);
}

void HealthProber::transition(int id, Watched& w, Health to) {
  if (w.health == to) return;
  const Health from = w.health;
  w.health = to;
  if (on_state_) on_state_(id, from, to);
}

}  // namespace sc::fleet
