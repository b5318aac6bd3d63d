#include "measure/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "measure/cell_world.h"

namespace sc::measure {

// sclint:allow(det-taint-reach) worker count sizes the pool only; items are merged in deterministic index order and the parallel-vs-serial digest tests assert byte-identical results at every thread count
ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;  // hardware_concurrency may report 0
}

void ParallelRunner::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the calling thread is worker 0
  for (std::thread& t : pool) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

CampaignTrialResult runCampaignTrial(const CampaignTrial& trial) {
  Testbed tb(trial.testbed);
  CampaignTrialResult out;
  out.result = runAccessCampaign(tb, trial.method, trial.tag, trial.campaign);
  captureJsonl(tb.hub(), out.metrics_jsonl,
               trial.testbed.tracing ? &out.trace_jsonl : nullptr,
               trial.testbed.spans ? &out.spans_jsonl : nullptr);
  return out;
}

}  // namespace sc::measure
