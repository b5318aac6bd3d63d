#include "sim/rng.h"

#include <cmath>
#include <numbers>

namespace sc::sim {

namespace {
// SplitMix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitMix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_lineage_(seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitMix64(x);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniformU64(span));
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniformDouble() < p;
}

double Rng::exponential(double mean) noexcept {
  double u = uniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniformDouble();
  const double u2 = uniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Bytes Rng::randomBytes(std::size_t n) {
  Bytes out(n);
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t v = nextU64();
    for (int k = 0; k < 8; ++k)
      out[i + static_cast<std::size_t>(k)] =
          static_cast<std::uint8_t>(v >> (8 * k));
    i += 8;
  }
  if (i < n) {
    const std::uint64_t v = nextU64();
    for (int k = 0; i < n; ++i, ++k)
      out[i] = static_cast<std::uint8_t>(v >> (8 * k));
  }
  return out;
}

Rng Rng::fork(std::uint64_t label) const noexcept {
  // Mix lineage and label through SplitMix64 for an independent stream.
  std::uint64_t x = seed_lineage_ ^ (label * 0xA24BAED4963EE407ULL);
  const std::uint64_t child_seed = splitMix64(x);
  return Rng(child_seed);
}

}  // namespace sc::sim
