// Parallel cell executor.
//
// Every cell of a measurement sweep — one (method, client_count, seed) point
// of runScalability, one trial of a multi-trial access campaign, one fleet,
// chaos, population, validation or serverless cell — builds its own world
// with its own Simulator, obs::Hub, and Rng. Cells share no mutable state, so
// they are embarrassingly parallel: runCells fans them across hardware
// threads and merges results in deterministic cell order. Output is
// byte-identical regardless of thread count (including 1); parallelism
// changes only wall-clock time, never results.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "measure/campaign.h"

namespace sc::measure {

class ParallelRunner {
 public:
  // threads == 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit ParallelRunner(unsigned threads = 0);

  unsigned threads() const noexcept { return threads_; }

  // Runs fn(0) ... fn(n-1) across the workers. Indices are claimed from a
  // shared atomic counter, so callers must make fn safe to run concurrently
  // for distinct indices (each cell owning its Simulator suffices). Blocks
  // until every index has run; the first exception thrown by any fn is
  // rethrown on the calling thread after all workers join.
  void forEachIndex(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned threads_;
};

// Runs fn(cell) for every cell across `threads` workers (0 = one per
// hardware thread). Results arrive in cell order, byte-identical to a serial
// run for any thread count because each cell owns its world.
template <typename Cell, typename Fn>
auto runCells(const std::vector<Cell>& cells, unsigned threads, Fn fn) {
  std::vector<std::invoke_result_t<Fn&, const Cell&>> results(cells.size());
  ParallelRunner(threads).forEachIndex(
      cells.size(), [&](std::size_t i) { results[i] = fn(cells[i]); });
  return results;
}

// One independent access-campaign trial: a fresh testbed (trial.testbed
// seeds and configures it) driving one client through trial.campaign.
struct CampaignTrial {
  Method method = Method::kDirect;
  std::uint32_t tag = 1;
  CampaignOptions campaign;
  TestbedOptions testbed;
};

struct CampaignTrialResult {
  CampaignResult result;
  // JSONL exports of the trial's own Hub, captured before the testbed dies.
  // trace_jsonl is empty unless trial.testbed.tracing was on; spans_jsonl is
  // empty unless trial.testbed.spans was on.
  std::string trace_jsonl;
  std::string metrics_jsonl;
  std::string spans_jsonl;
};

CampaignTrialResult runCampaignTrial(const CampaignTrial& trial);

}  // namespace sc::measure
