#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"

namespace sc::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

// uniform(Bound) with the bound built once draws what uniformU64 draws,
// and both draw what the textbook rejection loop over nextU64 draws,
// rejections included, leaving the stream at the same place. The bounds
// cover no rejection (1, 2), small odd ranges, just past 2^32 and 2^63
// (nearly half of all draws rejected), the full range, and the default
// population's three class sizes (150k/550k/300k of 1M).
TEST(Rng, UniformBoundMatchesUniformU64) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{7},
        (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1, kMax,
        std::uint64_t{150'000}, std::uint64_t{550'000},
        std::uint64_t{300'000}}) {
    const Rng::Bound bound = Rng::boundOf(n);
    EXPECT_EQ(bound.n, n);
    EXPECT_EQ(bound.threshold, (0 - n) % n);
    Rng a(0xb0b + n), b(0xb0b + n), ref(0xb0b + n);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t r = ref.nextU64();
      while (r < (0 - n) % n) r = ref.nextU64();
      const std::uint64_t v = a.uniformU64(n);
      ASSERT_EQ(v, r % n) << "n=" << n << " draw " << i;
      ASSERT_EQ(v, b.uniform(bound)) << "n=" << n << " draw " << i;
    }
    const std::uint64_t next = ref.nextU64();
    EXPECT_EQ(a.nextU64(), next) << "n=" << n;
    EXPECT_EQ(b.nextU64(), next) << "n=" << n;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.nextU64() == b.nextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(42);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.chance(0.044)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.044, 0.006);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.25);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(42);
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) vals.push_back(rng.normal(10.0, 2.0));
  double mean = 0;
  for (double v : vals) mean += v;
  mean /= static_cast<double>(vals.size());
  double var = 0;
  for (double v : vals) var += (v - mean) * (v - mean);
  var /= static_cast<double>(vals.size());
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, RandomBytesLengthAndVariety) {
  Rng rng(42);
  const Bytes b = rng.randomBytes(1000);
  ASSERT_EQ(b.size(), 1000u);
  std::array<bool, 256> seen{};
  for (auto byte : b) seen[byte] = true;
  int distinct = 0;
  for (bool s : seen) distinct += s;
  EXPECT_GT(distinct, 200);
}

TEST(Rng, ForkedStreamsIndependentAndDeterministic) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1_again = parent.fork(1);
  EXPECT_EQ(c1.nextU64(), c1_again.nextU64());
  EXPECT_NE(c1.nextU64(), c2.nextU64());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(100, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.schedule(10, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Simulator, CancelledEventsDoNotRun) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(10, [&] { ++fired; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(1000, [&] { ++fired; });
  sim.run(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.runUntil(12345);
  EXPECT_EQ(sim.now(), 12345);
}

TEST(Simulator, RunWhileStopsAtPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule(i * 10, [&] { ++count; });
  EXPECT_TRUE(sim.runWhile([&] { return count >= 3; }, kSecond));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.runWhile([&] { return count >= 100; }, kSecond));
}

TEST(Simulator, DefaultHandleIsInactiveAndCancelIsNoop) {
  EventHandle handle;
  EXPECT_FALSE(handle.active());
  handle.cancel();  // must be safe
  EXPECT_FALSE(handle.active());
}

TEST(Simulator, FiredHandleIsInactiveAndCancelIsNoop) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(10, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.active());
  handle.cancel();  // stale cancel after firing must not touch anything
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator sim;
  int fired = 0;
  auto old = sim.schedule(10, [&] { ++fired; });
  sim.run();
  // The new event may reuse the fired event's slot; the old handle's stale
  // generation must not reach it.
  auto fresh = sim.schedule(10, [&] { ++fired; });
  old.cancel();
  EXPECT_TRUE(fresh.active());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PendingEventsCountsLiveOnly) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i)
    handles.push_back(sim.schedule(100 + i, [] {}));
  EXPECT_EQ(sim.pendingEvents(), 6u);
  handles[1].cancel();
  handles[4].cancel();
  EXPECT_EQ(sim.pendingEvents(), 4u);
  // The lazily-cancelled entries still occupy the heap until popped.
  EXPECT_EQ(sim.queuedEntries(), 6u);
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.queuedEntries(), 0u);
}

TEST(Simulator, MaxQueueDepthTracksLiveHighWater) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i)
    handles.push_back(sim.schedule(100 + i, [] {}));
  for (int i = 0; i < 5; ++i) handles[static_cast<std::size_t>(i)].cancel();
  // Refill: live count returns to 10, so the high-water must stay 10 even
  // though 15 entries passed through the heap.
  for (int i = 0; i < 5; ++i) sim.schedule(200 + i, [] {});
  EXPECT_EQ(sim.maxQueueDepth(), 10u);
  sim.run();
  EXPECT_EQ(sim.maxQueueDepth(), 10u);
}

TEST(Simulator, CompactionRunsWhenMostlyCancelled) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(sim.schedule(1000 + i, [] {}));
  for (int i = 0; i < 70; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_GE(sim.compactions(), 1u);
  EXPECT_EQ(sim.pendingEvents(), 30u);
  // Compaction dropped the dead majority: the heap shrank well below the
  // 100 entries that were scheduled, and dead entries are a minority again.
  EXPECT_LT(sim.queuedEntries(), 70u);
  EXPECT_LE(sim.queuedEntries() - sim.pendingEvents(),
            sim.queuedEntries() / 2);
}

TEST(Simulator, CompactionPreservesOrderAndTieBreaking) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  // Interleave 40 equal-time survivors with 60 cancelled events so that the
  // cancellations trigger a compaction (heap rebuild), then check the
  // survivors still fire in schedule order.
  for (int i = 0; i < 100; ++i) {
    if (i % 5 != 0) {
      doomed.push_back(sim.schedule(500, [] {}));
    } else {
      sim.schedule(500, [&order, i] { order.push_back(i); });
    }
  }
  for (auto& h : doomed) h.cancel();
  EXPECT_GE(sim.compactions(), 1u);
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 100; i += 5) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Simulator, OversizedCapturesFallBackToHeap) {
  Simulator sim;
  // A capture larger than the inline storage must still work (heap path).
  std::array<char, 200> big{};
  big[0] = 7;
  big[199] = 9;
  int sum = 0;
  sim.schedule(10, [big, &sum] { sum = big[0] + big[199]; });
  sim.run();
  EXPECT_EQ(sum, 16);
}

TEST(Simulator, CancelInsideEventAffectsLaterEvent) {
  Simulator sim;
  int fired = 0;
  auto victim = sim.schedule(20, [&] { ++fired; });
  sim.schedule(10, [&] { victim.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

// A pending body may own an object whose destructor cancels another handle
// on the same simulator (a socket closing its RTO timer). Destroying the
// simulator must make that handle inactive before the body dies, rather than
// let the cancel read the freed generation table.
TEST(Simulator, DestroyingWithPendingBodiesThatCancelIsSafe) {
  struct CancelsOnDestruction {
    EventHandle* victim = nullptr;
    bool* saw_active = nullptr;
    ~CancelsOnDestruction() {
      *saw_active = victim->active();
      victim->cancel();
    }
  };
  EventHandle victim;
  bool saw_active = true;
  auto owner = std::make_shared<CancelsOnDestruction>();
  owner->victim = &victim;
  owner->saw_active = &saw_active;
  const std::weak_ptr<CancelsOnDestruction> watch = owner;
  {
    Simulator sim;
    victim = sim.schedule(20, [] {});
    sim.schedule(10, [owner = std::move(owner)] { (void)owner; });
    EXPECT_TRUE(victim.active());
  }
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(saw_active);
}

// The heap key packs seq << 24 | slot: order by seq first whatever the
// slots, with both fields usable up to their last value.
TEST(Simulator, OrderKeyPacksSeqAboveSlot) {
  constexpr std::uint64_t kLastSeq = Simulator::kMaxSeq - 1;
  constexpr auto kLastSlot =
      static_cast<std::uint32_t>(Simulator::kMaxSlots - 1);
  EXPECT_EQ(Simulator::packOrder(0, 0), 0u);
  EXPECT_EQ(Simulator::packOrder(1, 0), std::uint64_t{1} << 24);
  EXPECT_EQ(Simulator::packOrder(0, kLastSlot), 0xFFFFFFu);
  EXPECT_EQ(Simulator::packOrder(kLastSeq, kLastSlot),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_LT(Simulator::packOrder(5, kLastSlot), Simulator::packOrder(6, 0));
  EXPECT_LT(Simulator::packOrder(kLastSeq - 1, kLastSlot),
            Simulator::packOrder(kLastSeq, 0));
}

// Past either field's range, packing throws instead of wrapping into a
// misordered key; the boundary values themselves are accepted.
TEST(Simulator, OrderKeyLimitsThrow) {
  EXPECT_NO_THROW(Simulator::packOrder(Simulator::kMaxSeq - 1, 0));
  EXPECT_THROW(Simulator::packOrder(Simulator::kMaxSeq, 0), std::length_error);
  EXPECT_THROW(
      Simulator::packOrder(std::numeric_limits<std::uint64_t>::max(), 0),
      std::length_error);
  EXPECT_NO_THROW(Simulator::packOrder(
      0, static_cast<std::uint32_t>(Simulator::kMaxSlots - 1)));
  EXPECT_THROW(Simulator::packOrder(
                   0, static_cast<std::uint32_t>(Simulator::kMaxSlots)),
               std::length_error);
  EXPECT_THROW(
      Simulator::packOrder(0, std::numeric_limits<std::uint32_t>::max()),
      std::length_error);
}

// A slot is reused for a new event only after its old entry left the heap,
// and a stale handle to the old event never reaches the new one: fired and
// cancelled alike, across many generations of one slot.
TEST(Simulator, ParityGenerationsKeepStaleHandlesInactive) {
  Simulator sim;
  std::vector<EventHandle> stale;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    auto h = sim.schedule(1, [&] { ++fired; });
    for (const auto& old : stale) EXPECT_FALSE(old.active());
    for (auto old : stale) old.cancel();
    EXPECT_TRUE(h.active());
    if (round % 2 == 0) {
      sim.run();
    } else {
      h.cancel();
      sim.run();  // the dead entry surfaces and frees the slot
    }
    EXPECT_FALSE(h.active());
    stale.push_back(h);
    EXPECT_EQ(sim.queuedEntries(), 0u);
  }
  EXPECT_EQ(fired, 25);
  EXPECT_EQ(sim.maxQueueDepth(), 1u);  // one slot, recycled every round
}

// Seeded mix of schedules (ties, whole batches at one instant, nested),
// cancels (from outside and inside bodies, enough to force compactions) and
// partial runs. Every event that was not cancelled must fire, in exactly
// (at, seq) order; every cancelled body must release its captures by the
// time its entry surfaces or is compacted away; and a fired or cancelled
// event's handle stays inactive, and its cancel() a no-op, however often its
// slot has been recycled since.
TEST(Simulator, PropertyFiringOrderAndCancelledCaptureRelease) {
  struct Record {
    Time at = 0;
    std::uint64_t seq = 0;
    EventHandle handle;
    std::shared_ptr<int> token;  // the test's copy; the body holds another
    bool fired = false;
    bool cancelled = false;
  };
  using Key = std::tuple<Time, std::uint64_t, std::size_t>;

  Simulator sim;
  Rng rng(20171211);
  std::vector<Record> events;
  std::vector<std::size_t> fired_order;
  // Cancelled events whose entries have not provably left the heap yet,
  // earliest key on top.
  std::priority_queue<Key, std::vector<Key>, std::greater<>> unreleased;
  std::uint64_t next_seq = 0;
  std::uint64_t compactions_seen = 0;
  std::size_t ops = 0;

  const Key kAfterAll{std::numeric_limits<Time>::max(), 0, 0};
  const auto expectReleasedBefore = [&](const Key& bound) {
    while (!unreleased.empty() && unreleased.top() < bound) {
      const auto& rec = events[std::get<2>(unreleased.top())];
      EXPECT_EQ(rec.token.use_count(), 1) << "cancelled seq " << rec.seq;
      unreleased.pop();
    }
  };
  std::function<void(std::size_t)> fire;
  const auto scheduleOne = [&](Time delay) {
    const std::size_t id = events.size();
    events.push_back(Record{sim.now() + delay, next_seq++, {},
                            std::make_shared<int>(0), false, false});
    events[id].handle =
        sim.schedule(delay, [&fire, id, token = events[id].token] {
          (void)token;
          fire(id);
        });
    ++ops;
  };
  const auto cancelOne = [&](std::size_t id) {
    Record& rec = events[id];
    const bool pending = !rec.fired && !rec.cancelled;
    EXPECT_EQ(rec.handle.active(), pending);
    rec.handle.cancel();
    EXPECT_FALSE(rec.handle.active());
    ++ops;
    if (!pending) return;
    rec.cancelled = true;
    unreleased.emplace(rec.at, rec.seq, id);
    if (sim.compactions() != compactions_seen) {
      // A compaction swept every cancelled entry.
      compactions_seen = sim.compactions();
      expectReleasedBefore(kAfterAll);
    }
  };
  const auto randomId = [&] {
    return static_cast<std::size_t>(rng.uniformU64(events.size()));
  };
  fire = [&](std::size_t id) {
    Record& rec = events[id];
    EXPECT_FALSE(rec.cancelled);
    EXPECT_FALSE(rec.fired);
    EXPECT_EQ(sim.now(), rec.at);
    rec.fired = true;
    fired_order.push_back(id);
    expectReleasedBefore(Key{rec.at, rec.seq, 0});
    // Nested schedules: delay 0 ties with events already due now.
    const auto nested = rng.uniformInt(0, 1);
    for (std::int64_t i = 0; i < nested && events.size() < 12000; ++i)
      scheduleOne(rng.uniformInt(0, 20));
    if (rng.chance(0.3)) cancelOne(randomId());
  };

  // Stale handles: cancel() must not reach the slot's current occupant, so
  // every pending event still fires (checked against the reference order
  // below) and the live count does not move.
  const auto pokeStaleHandles = [&] {
    for (int k = 0; k < 8; ++k) {
      const Record& rec = events[randomId()];
      if (!rec.fired && !rec.cancelled) continue;
      const std::size_t pending = sim.pendingEvents();
      EventHandle stale = rec.handle;
      EXPECT_FALSE(stale.active());
      stale.cancel();
      EXPECT_EQ(sim.pendingEvents(), pending);
    }
  };

  while (events.size() < 11000) {
    // A batch of coarse times (many exact ties), sometimes all at one
    // instant, then a cancel storm over most of it so the dead majority
    // forces a compaction.
    const std::size_t first = events.size();
    const auto batch = rng.uniformInt(80, 200);
    const bool one_instant = rng.chance(0.25);
    for (std::int64_t i = 0; i < batch; ++i)
      scheduleOne(one_instant ? 100 : rng.uniformInt(0, 40) * 5);
    const auto cancels = rng.uniformInt(0, 2 * batch);
    for (std::int64_t i = 0; i < cancels; ++i)
      cancelOne(first + static_cast<std::size_t>(rng.uniformU64(
                            static_cast<std::uint64_t>(batch))));
    sim.run(sim.now() + rng.uniformInt(0, 240));
    pokeStaleHandles();
  }
  sim.run();
  expectReleasedBefore(kAfterAll);

  std::vector<Key> expected;
  for (std::size_t id = 0; id < events.size(); ++id) {
    EXPECT_NE(events[id].fired, events[id].cancelled) << "event " << id;
    EXPECT_EQ(events[id].token.use_count(), 1) << "event " << id;
    if (!events[id].cancelled)
      expected.emplace_back(events[id].at, events[id].seq, id);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(fired_order.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(fired_order[i], std::get<2>(expected[i])) << "position " << i;
  EXPECT_GE(ops, 10000u);
  EXPECT_GE(sim.compactions(), 5u);
  // Slots were recycled many times over: far fewer slots than events.
  EXPECT_LT(sim.maxQueueDepth(), events.size() / 10);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.queuedEntries(), 0u);
}

}  // namespace
}  // namespace sc::sim
