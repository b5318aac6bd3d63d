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

  std::uint64_t nextU64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // A range [0, n) with its rejection threshold (-n % n, the count of low
  // draws that would bias the modulo) computed once. A call site that draws
  // from one fixed range many times keeps a Bound instead of paying that
  // 64-bit division per draw.
  struct Bound {
    std::uint64_t n = 1;
    std::uint64_t threshold = 0;
  };
  static constexpr Bound boundOf(std::uint64_t n) noexcept {
    return Bound{n, -n % n};
  }

  // Uniform in [0, b.n): rejection sampling, so a draw may repeat.
  std::uint64_t uniform(const Bound& b) noexcept {
    while (true) {
      const std::uint64_t r = nextU64();
      if (r >= b.threshold) return r % b.n;
    }
  }

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniformU64(std::uint64_t bound) noexcept {
    return uniform(boundOf(bound));
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform double in [0, 1).
  double uniformDouble() noexcept {
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
  }

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
  void discard(int n) noexcept {
    for (int i = 0; i < n; ++i) nextU64();
  }

  // Random byte buffer (for keys, nonces, cover traffic).
  Bytes randomBytes(std::size_t n);

  // Derives an independent child stream. Deterministic: depends only on the
  // parent's seed lineage and the label.
  Rng fork(std::uint64_t label) const noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  std::uint64_t seed_lineage_;
};

}  // namespace sc::sim
