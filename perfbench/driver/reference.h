// A fixed reference workload that gauges how fast this host runs code like
// the simulator's right now.
//
// Other tenants of a shared host slow every program on it by tens of
// percent for minutes at a time; no estimator inside one run removes that.
// The reference is the benchmark's own code, not the simulator's, so a
// change to the simulator never moves it: timing it alongside the workload
// and scaling the workload's times by (nominal ÷ measured reference time)
// removes most of the host's slowdown and none of the program's speed-up.
#pragma once

#include <memory>

namespace perfbench {

// About the reference pass's time on a lightly loaded 4-vCPU Xeon guest:
// scaled times read as that host's. Only the scale of the reported values
// depends on it, never a comparison between two builds.
inline constexpr double kReferenceNominalS = 0.050;

class Reference {
 public:
  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  // Runs one pass (the same work every time) and returns its wall seconds.
  // The result is checked: a pass that computed a different value than the
  // first one makes ok() false.
  double pass();
  bool ok() const { return ok_; }

 private:
  struct State;
  std::unique_ptr<State> state_;
  bool ok_ = true;
};

}  // namespace perfbench
