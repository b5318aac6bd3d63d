#include "sim/simulator.h"

#include <cassert>
#include <chrono>
#include <utility>

namespace sc::sim {

namespace {
// Accumulates wallclock spent inside a run loop into `total` on scope exit.
// Wallclock never feeds the trace or any simulated behaviour — it is a
// metrics-only number (events/sec of the simulator itself).
class WallTimer {
 public:
  explicit WallTimer(double& total)
      // sclint:allow(det-wallclock) metrics-only events/sec meter; never feeds simulated behaviour
      : total_(total), start_(std::chrono::steady_clock::now()) {}
  ~WallTimer() {
    total_ += std::chrono::duration<double>(
                  // sclint:allow(det-wallclock) metrics-only events/sec meter; never feeds simulated behaviour
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

 private:
  double& total_;
  // sclint:allow(det-wallclock) metrics-only events/sec meter; never feeds simulated behaviour
  std::chrono::steady_clock::time_point start_;
};

// Only compact heaps past this size: tiny heaps are cheap to drain lazily
// and compacting them would churn for no measurable win.
constexpr std::size_t kCompactMinEntries = 64;
}  // namespace

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancelEvent(slot_, gen_);
}

bool EventHandle::active() const {
  return sim_ != nullptr && sim_->isLive(slot_, gen_);
}

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() {
  // Every outstanding handle goes inactive before any pending body dies: a
  // capture's destructor may cancel a handle (a socket's RTO timer), which
  // must then find a stale slot rather than freed state.
  for (auto& gen : slot_gen_) ++gen;
  live_events_ = 0;
  for (std::size_t i = 0; i < bodies_.size(); ++i) {
    EventFn dead = std::move(bodies_[i]);
  }
}

EventHandle Simulator::schedule(Time delay, EventFn fn) {
  assert(delay >= 0);
  return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle Simulator::scheduleAt(Time at, EventFn fn) {
  assert(at >= now_);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
    bodies_.emplace_back();
  }
  const std::uint32_t gen = slot_gen_[slot];
  bodies_[slot] = std::move(fn);
  heap_.push_back(Event{at, next_seq_++, slot, gen});
  siftUp(heap_.size() - 1);
  ++live_events_;
  if (live_events_ > max_queue_depth_) max_queue_depth_ = live_events_;
  return EventHandle(this, slot, gen);
}

// ---- 4-ary heap primitives -------------------------------------------------

void Simulator::siftUp(std::size_t i) {
  const Event ev = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

void Simulator::siftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const Event ev = heap_[i];
  while (true) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], ev)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = ev;
}

void Simulator::rebuildHeap() {
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) siftDown(i);
}

void Simulator::discardTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0);
}

// ---- cancellation ----------------------------------------------------------

void Simulator::cancelEvent(std::uint32_t slot, std::uint32_t gen) {
  if (!isLive(slot, gen)) return;  // fired, already cancelled, or bogus
  ++slot_gen_[slot];               // every outstanding handle goes stale
  --live_events_;
  ++cancelled_in_heap_;
  // The dead entry stays in the heap and is skipped when it surfaces —
  // unless the dead fraction passes 1/2, in which case one O(n) sweep
  // reclaims the memory (and the slots) immediately.
  if (cancelled_in_heap_ > heap_.size() / 2 && heap_.size() >= kCompactMinEntries)
    compact();
}

void Simulator::releaseSlot(std::uint32_t slot) {
  // Move the body out first: its captures' destructors may cancel (and so
  // compact) or schedule (and so grow bodies_), which must not happen under
  // a reference into bodies_.
  const EventFn dead = std::move(bodies_[slot]);
  free_slots_.push_back(slot);
}

void Simulator::compact() {
  std::vector<std::uint32_t> swept;
  swept.reserve(cancelled_in_heap_);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (isLive(heap_[i].slot, heap_[i].gen)) {
      heap_[kept++] = heap_[i];
    } else {
      swept.push_back(heap_[i].slot);
    }
  }
  heap_.resize(kept);
  cancelled_in_heap_ = 0;
  rebuildHeap();
  ++compactions_;
  // The swept bodies die only once the heap is consistent again.
  for (const std::uint32_t slot : swept) releaseSlot(slot);
}

// ---- run loop --------------------------------------------------------------

bool Simulator::settleTop() {
  while (!heap_.empty()) {
    const Event top = heap_.front();
    if (isLive(top.slot, top.gen)) return true;
    --cancelled_in_heap_;
    discardTop();
    releaseSlot(top.slot);
  }
  return false;
}

void Simulator::fireTop() {
  // Move the body out before invoking: it may schedule (grow the heap and
  // bodies_) or cancel (compact them), so no reference into either survives.
  const Event top = heap_.front();
  discardTop();
  now_ = top.at;
  ++slot_gen_[top.slot];  // fired: handles to this event go inactive NOW
  EventFn fn = std::move(bodies_[top.slot]);
  free_slots_.push_back(top.slot);
  --live_events_;
  ++events_executed_;
  fn();
}

std::size_t Simulator::run(Time deadline) {
  WallTimer timer(wall_seconds_);
  std::size_t n = 0;
  while (settleTop() && heap_.front().at <= deadline) {
    fireTop();
    ++n;
  }
  return n;
}

std::size_t Simulator::runUntil(Time deadline) {
  const std::size_t n = run(deadline);
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::runWhile(const std::function<bool()>& done, Time deadline) {
  WallTimer timer(wall_seconds_);
  if (done()) return true;
  while (settleTop() && heap_.front().at <= deadline) {
    fireTop();
    if (done()) return true;
  }
  return false;
}

}  // namespace sc::sim
