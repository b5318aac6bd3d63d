// Sim-time endpoint health probing with exponential backoff.
//
// Per watched endpoint a small state machine:
//
//        success                     failure
//   kUnknown ----> kHealthy    kHealthy ----> kDegraded
//   kDegraded --> kHealthy     kDegraded ---> kDown  (after fail_threshold
//   kDown ------> kHealthy                           consecutive failures)
//
// Probe cadence: `interval` while healthy; after the f-th consecutive
// failure the next probe fires at min(1 s << (f-1), backoff_max) —
// a blocked egress is retried quickly at first (the GFW's temporary-suspect
// entries expire), then left alone so probe traffic doesn't become a beacon.
//
// The probe itself is delegated (ProbeFn): the fleet pings over a tunnel,
// tests fabricate outcomes. probeNow()/probeAllNow() collapse the wait when
// external evidence arrives (GFW blocklist churn).
#pragma once

#include <functional>
#include <map>

#include "sim/simulator.h"

namespace sc::fleet {

enum class Health { kUnknown, kHealthy, kDegraded, kDown };

const char* healthName(Health h);

struct HealthProberOptions {
  sim::Time interval = 2 * sim::kSecond;       // cadence while healthy
  sim::Time backoff_max = 30 * sim::kSecond;
  int fail_threshold = 3;  // consecutive failures until kDown
};

class HealthProber {
 public:
  // done(true) = endpoint answered; must be invoked exactly once per probe.
  using ProbeFn = std::function<void(int id, std::function<void(bool)> done)>;
  using StateFn = std::function<void(int id, Health from, Health to)>;

  HealthProber(sim::Simulator& sim, HealthProberOptions options,
               ProbeFn probe);

  void setOnStateChange(StateFn fn) { on_state_ = std::move(fn); }

  // First probe fires after `interval` (watch during churn would otherwise
  // synchronize every endpoint's probe clock).
  void watch(int id);
  void unwatch(int id);

  void probeNow(int id);
  void probeAllNow();

  Health state(int id) const;
  int consecutiveFailures(int id) const;
  std::uint64_t probesSent() const noexcept { return probes_sent_; }

 private:
  struct Watched {
    Health health = Health::kUnknown;
    int failures = 0;
    std::uint64_t generation = 0;  // invalidates in-flight done() callbacks
    sim::EventHandle timer;
  };

  void scheduleProbe(int id, sim::Time delay);
  void fireProbe(int id);
  void onProbeDone(int id, std::uint64_t generation, bool ok);
  void transition(int id, Watched& w, Health to);

  sim::Simulator& sim_;
  HealthProberOptions options_;
  ProbeFn probe_;
  StateFn on_state_;
  std::map<int, Watched> watched_;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace sc::fleet
