// Metrics-driven fleet autoscaler.
//
// Reads load from the obs::Registry — the same instrument the exporters
// dump, so a scaling decision is always explainable from the metrics file:
// sc.fleet.active_streams, the current leased streams.
//
// Policy: every `interval`, per-endpoint load = gauge / size(). Above 4
// leased streams per endpoint -> grow by one; below 1 -> shrink by one;
// always within [min_size, max_size] and at most one step per `cooldown`
// (rented VMs take minutes to provision — flapping would churn egress IPs
// for nothing).
#pragma once

#include <functional>
#include <string>

#include "obs/hub.h"
#include "sim/simulator.h"

namespace sc::fleet {

struct AutoscalerOptions {
  int min_size = 1;
  int max_size = 8;
  sim::Time interval = 10 * sim::kSecond;
  sim::Time cooldown = 30 * sim::kSecond;
};

class Autoscaler {
 public:
  using SizeFn = std::function<int()>;
  using ScaleFn = std::function<void(int delta)>;  // +1 grow, -1 shrink

  Autoscaler(sim::Simulator& sim, AutoscalerOptions options, SizeFn size,
             ScaleFn scale);
  ~Autoscaler() { stop(); }

  void start();
  void stop();

  // One evaluation step; public so tests drive it without sim time.
  void tick();

  std::uint64_t scaleUps() const noexcept { return ups_; }
  std::uint64_t scaleDowns() const noexcept { return downs_; }

 private:
  double readLoad() const;

  sim::Simulator& sim_;
  AutoscalerOptions options_;
  SizeFn size_;
  ScaleFn scale_;
  sim::EventHandle timer_;
  sim::Time last_scale_at_ = 0;
  bool scaled_once_ = false;
  std::uint64_t ups_ = 0;
  std::uint64_t downs_ = 0;

  obs::Gauge* g_load_ = nullptr;
};

}  // namespace sc::fleet
