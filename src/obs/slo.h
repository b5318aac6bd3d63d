// Windowed SLO evaluation with multi-window burn-rate alerting.
//
// Two objectives over the access stream (fed one sample per completed page
// load, ok + latency):
//   - availability: at least 99% of accesses succeed;
//   - p99 latency: at least 99% of accesses finish under 8 s, the per-access
//     PLT bound ("slow is the new down" — a slow success spends the same
//     budget as a failure, tracked separately).
//
// Burn rate is the SRE-workbook ratio: (bad fraction over a window) divided
// by the budget fraction (1 - target). Burn 1.0 spends exactly the budget
// over the window; 14x is the classic page threshold. Alerts use the
// two-window AND rule — the long window proves the burn is sustained, the
// short window proves it is still happening — so a single failure spike
// neither pages nor sticks after recovery. The windows are 5 minutes and
// one hour:
//   - page   when both windows burn above 14x,
//   - ticket when both windows burn above 6x,
//   - clear  when both drop below 6x after an alert.
// Transitions emit kSloAlert trace events (the rollback signal ROADMAP item
// 5's gradual-rollout consumes) and bump sc.slo.* counters.
//
// Determinism: evaluation happens at sample times only, windows are
// sim-time, and sample storage is a pruned chronological deque — same seed,
// same alerts, byte-identical exports.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sc::obs {

class Registry;
class Tracer;
class Counter;

// The short burn-rate window: proves a burn is still happening.
inline constexpr sim::Time kSloShortWindow = 5 * sim::kMinute;

struct SloConfig {
  // No alert evaluation until the long window holds this many samples — a
  // cold start with one failed access is not a 100x burn.
  std::uint64_t min_samples = 10;
};

class SloEngine {
 public:
  explicit SloEngine(SloConfig config = {});

  // The Hub wires its Registry (counters) and Tracer (kSloAlert events).
  void bind(Registry* registry, Tracer* tracer);

  // One completed access. Prunes, evaluates both objectives, maybe alerts.
  void sample(sim::Time at, bool ok, sim::Time latency);

  struct WindowStats {
    std::uint64_t samples = 0;
    std::uint64_t errors = 0;  // failed accesses
    std::uint64_t slow = 0;    // ok but above the 8 s latency target
    double availability = 1.0;
    double availability_burn = 0.0;
    double latency_burn = 0.0;
    sim::Time latency_p99 = 0;  // nearest-rank p99 over the window
  };
  // Stats over (now - width, now]; `now` is the latest sample time.
  WindowStats window(sim::Time width) const;

  // 0 = healthy, 1 = ticket, 2 = page; per objective ("availability",
  // "latency_p99").
  int availabilityLevel() const noexcept { return availability_.level; }
  int latencyLevel() const noexcept { return latency_.level; }

  std::uint64_t alertsFired() const noexcept { return alerts_fired_; }
  std::uint64_t samplesSeen() const noexcept { return samples_seen_; }

 private:
  struct Sample {
    sim::Time at = 0;
    sim::Time latency = 0;
    bool ok = false;
  };
  struct Objective {
    const char* name = "";
    int level = 0;
  };

  void evaluate(Objective& objective, double short_burn, double long_burn);
  void emitAlert(const Objective& objective, const char* what,
                 double long_burn);

  SloConfig config_;
  std::deque<Sample> samples_;
  sim::Time now_ = 0;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t alerts_fired_ = 0;
  Objective availability_{"availability", 0};
  Objective latency_{"latency_p99", 0};
  Tracer* tracer_ = nullptr;
  Counter* c_samples_ = nullptr;
  Counter* c_errors_ = nullptr;
  Counter* c_pages_ = nullptr;
  Counter* c_tickets_ = nullptr;
  Counter* c_clears_ = nullptr;
};

}  // namespace sc::obs
