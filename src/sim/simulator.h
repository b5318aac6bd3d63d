// Discrete-event simulator: the heart of the testbed substrate.
//
// Every layer (links, TCP timers, GFW probes, browsers issuing a page load
// each simulated minute) schedules closures on this queue. Ties are broken by
// insertion order, which — together with the deterministic Rng — makes whole
// measurement campaigns exactly reproducible.
//
// Hot-path memory layout (see DESIGN.md "Event-loop memory layout"):
//   - event bodies are InplaceFunction<void()> — 64 bytes of inline capture,
//     move-only, no heap for every timer/delivery closure in the tree;
//   - bodies stay put in a slab indexed by the event's slot; the queue holds
//     only 24-byte (time, seq, slot, gen) keys, so reordering it never moves
//     a closure;
//   - cancellation is a (slot, generation) pair checked against a flat
//     per-slot generation table — no shared_ptr control block per event;
//   - the queue is a flat 4-ary min-heap on (time, seq) in one contiguous
//     vector: shallower than a binary heap and the four children share a
//     cache line's worth of adjacent slots.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace sc::obs {
class Hub;
}  // namespace sc::obs

namespace sc::sim {

class Simulator;

// The scheduled-closure type. Capture-light lambdas (up to 64 bytes) are
// stored inline in the body slab; larger captures pay one heap allocation.
using EventFn = InplaceFunction<void()>;

// Handle for cancelling a scheduled event (e.g. a TCP retransmission timer
// that is superseded by an ACK). Cancellation is lazy: the event stays in the
// queue but its body is skipped when it surfaces (and bulk-compacted away if
// cancelled entries ever dominate the heap).
//
// Pinned semantics (tested in test_sim.cpp):
//   - a default-constructed handle is inactive; cancel() is a no-op;
//   - after the event has FIRED, the handle is inactive and cancel() is a
//     no-op (the generation counter advanced when the event ran);
//   - after cancel(), the handle is inactive; a second cancel() is a no-op;
//   - copies of a handle share fate: cancelling or firing through one makes
//     every copy inactive.
// A handle must not outlive the Simulator it came from (handles are held by
// components that already reference the simulator). While the Simulator is
// being destroyed every handle reads inactive, so a pending body whose
// captures cancel a handle on destruction is safe.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool active() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 42);

  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const noexcept { return now_; }
  Rng& rng() noexcept { return rng_; }

  // Schedules `fn` to run `delay` microseconds from now (delay >= 0).
  EventHandle schedule(Time delay, EventFn fn);
  EventHandle scheduleAt(Time at, EventFn fn);

  // Runs until the queue is empty or `deadline` is passed.
  // Returns the number of (live) events executed.
  std::size_t run(Time deadline = kDay * 365);

  // Runs until `deadline`, then stops even if events remain.
  std::size_t runUntil(Time deadline);

  // Runs until `done` returns true (checked after every event) or the queue
  // drains or the deadline passes. Returns true iff `done` fired.
  bool runWhile(const std::function<bool()>& done, Time deadline);

  // Live (scheduled, not cancelled, not yet fired) events. Lazily-cancelled
  // entries still sitting in the heap are NOT counted.
  std::size_t pendingEvents() const noexcept { return live_events_; }
  // Raw heap occupancy, including lazily-cancelled entries awaiting
  // compaction (observability for the compaction policy itself).
  std::size_t queuedEntries() const noexcept { return heap_.size(); }

  // ---- observability ----
  // The installed obs::Hub (metrics registry + event tracer), or null.
  // Stored as a forward-declared pointer so sc_sim stays below sc_obs in
  // the link order; obs::Hub installs itself here on construction.
  obs::Hub* hub() const noexcept { return hub_; }
  void setHub(obs::Hub* hub) noexcept { hub_ = hub; }

  // Execution counters the simulator tracks itself (the hub can't be called
  // from here without inverting the dependency): live events executed,
  // high-water LIVE queue depth, and wallclock spent inside run loops.
  std::uint64_t eventsExecuted() const noexcept { return events_executed_; }
  std::size_t maxQueueDepth() const noexcept { return max_queue_depth_; }
  double wallSeconds() const noexcept { return wall_seconds_; }
  std::uint64_t compactions() const noexcept { return compactions_; }

 private:
  friend class EventHandle;

  // A heap entry is only the ordering key plus the slot of its body in
  // bodies_; sifts copy these 24 bytes and never touch a closure.
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  static_assert(sizeof(Event) == 24 && std::is_trivially_copyable_v<Event>);

  static bool earlier(const Event& a, const Event& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  // ---- flat 4-ary min-heap over heap_ ----
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  void rebuildHeap();
  // Removes heap_[0]; its body stays in bodies_.
  void discardTop();

  // Pops cancelled entries off the top; true iff a live top remains.
  bool settleTop();
  // Fires the (live) top event. Caller must have called settleTop().
  void fireTop();

  bool isLive(std::uint32_t slot, std::uint32_t gen) const noexcept {
    return slot < slot_gen_.size() && slot_gen_[slot] == gen;
  }
  void cancelEvent(std::uint32_t slot, std::uint32_t gen);
  // Destroys a cancelled event's body and returns its slot to the free list.
  void releaseSlot(std::uint32_t slot);
  // Drops every cancelled entry from the heap in one pass.
  void compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
  // Per slot: the body of the event holding it (empty once fired or
  // released) and its generation.
  std::vector<EventFn> bodies_;
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_events_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  Rng rng_;
  obs::Hub* hub_ = nullptr;
  std::uint64_t events_executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  double wall_seconds_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace sc::sim
