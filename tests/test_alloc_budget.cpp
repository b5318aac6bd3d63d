// Heap allocation budgets for the packet paths: how many times three
// reduced runs call the global operator new, each on a fresh world at
// seed 5 with its set-up included. This binary replaces the global
// operator new with a counting one, so it is kept apart from every other
// test.
//
// A count must repeat exactly on a second run in the same process (the
// simulator is deterministic, so its allocations are too) and stay within
// its budget: the count when the budget was last set, plus 2%. A change
// that adds allocations to a frame path fails here before it shows in a
// profile; one that removes many should lower the budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "measure/campaign.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sc::measure {
namespace {

// Allocations made by `run`, which builds and tears down its own world.
template <typename Run>
std::uint64_t allocationsOf(Run&& run) {
  const std::uint64_t before = g_allocations.load();
  run();
  return g_allocations.load() - before;
}

std::uint64_t campaignAllocations(Method method) {
  return allocationsOf([method] {
    TestbedOptions topts;
    topts.seed = 5;
    Testbed tb(topts);
    CampaignOptions opts;
    opts.accesses = 10;
    const CampaignResult r = runAccessCampaign(tb, method, 70, opts);
    EXPECT_TRUE(r.setup_ok);
    EXPECT_EQ(r.successes, 10);
  });
}

std::uint64_t fig7CellAllocations() {
  return allocationsOf([] {
    ScalabilityOptions opts;
    opts.seed = 5;
    const ScalabilityPoint p =
        runScalabilityPoint(Method::kShadowsocks, 30, opts);
    EXPECT_EQ(p.clients, 30);
  });
}

// Runs `count` twice, requires the same number both times, and checks it
// against `budget`. The count is printed so a change can report it.
template <typename Count>
void expectWithinBudget(const char* what, Count&& count,
                        std::uint64_t budget) {
  const std::uint64_t first = count();
  const std::uint64_t second = count();
  EXPECT_EQ(first, second) << what << ": allocation count is not repeatable";
  EXPECT_LE(first, budget) << what;
  std::printf("%s: %llu allocations (budget %llu)\n", what,
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(budget));
}

TEST(AllocBudget, TorCampaign) {
  expectWithinBudget(
      "tor campaign, 10 accesses",
      [] { return campaignAllocations(Method::kTor); }, 96375);
}

TEST(AllocBudget, ScholarCloudCampaign) {
  expectWithinBudget(
      "scholarcloud campaign, 10 accesses",
      [] { return campaignAllocations(Method::kScholarCloud); }, 22620);
}

TEST(AllocBudget, ShadowsocksFig7Cell) {
  expectWithinBudget("shadowsocks fig7 cell, 30 clients", fig7CellAllocations,
                     406269);
}

}  // namespace
}  // namespace sc::measure
