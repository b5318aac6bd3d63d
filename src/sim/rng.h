// Deterministic pseudo-random number generator (xoshiro256**), seeded
// explicitly so every experiment is reproducible. One instance lives in the
// Simulator; components derive sub-streams via fork() so adding a new
// component does not perturb the draws seen by existing ones.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace sc::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  std::uint64_t nextU64() noexcept;

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniformU64(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniformDouble() noexcept;

  // Bernoulli trial.
  bool chance(double p) noexcept;

  // Exponential with the given mean (> 0); used for jittered inter-arrivals.
  double exponential(double mean) noexcept;

  // Normal via Box-Muller (one value per call; the pair's twin is discarded
  // to keep the stream consumption rate deterministic per call site).
  // Consumes exactly kNormalDraws nextU64() values.
  double normal(double mean, double stddev) noexcept;
  static constexpr int kNormalDraws = 2;

  // Advances the stream by `n` nextU64() draws without using them: a call
  // site that skips a value it would have drawn (say, a normal() whose
  // result goes unused) keeps every later draw where it was.
  void discard(int n) noexcept;

  // Random byte buffer (for keys, nonces, cover traffic).
  Bytes randomBytes(std::size_t n);

  // Derives an independent child stream. Deterministic: depends only on the
  // parent's seed lineage and the label.
  Rng fork(std::uint64_t label) const noexcept;

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_lineage_;
};

}  // namespace sc::sim
