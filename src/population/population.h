// Population model: who the 1M+ scholars are and when they access Scholar.
//
// Three inputs shape the arrival stream:
//   - user classes (faculty / grad / undergrad) with per-class daily access
//     budgets and diurnal activity curves — the campus rhythm;
//   - the Fig. 3 method distribution via survey::MethodSampler, so the
//     population's bypass-method mix IS the survey's, per user,
//     deterministically (hash of seed + user id, no per-user state);
//   - a Zipf query catalog, so the shared domestic cache sees a realistic
//     head-heavy key distribution (the home page is the hottest key, exactly
//     the key the packet-level cohort also touches).
//
// Determinism contract: every method here is a pure function of
// (options, user id, sim time) or consumes a caller-owned sim::Rng with a
// fixed draw count per call. No statics, no wall clock, no unordered
// iteration — a 1M-scholar day is byte-identical on every run and thread
// count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "population/flow_model.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "survey/survey.h"

namespace sc::population {

// One stratum of the campus population. Shares sum to 1; diurnal[] holds 24
// hourly activity weights (normalized internally to mean 1.0 so
// accesses_per_day stays the daily budget regardless of curve shape).
struct UserClassSpec {
  const char* name = "";
  double share = 0;             // fraction of the scholar population
  double accesses_per_day = 0;  // mean Scholar accesses per scholar per day
  std::array<double, 24> diurnal{};
};

// The default campus mix (ROADMAP item 1's "user classes from the §4.1
// survey population"): weights follow a university's composition and the
// paper's observation that research-stage scholars dominate Scholar demand.
std::vector<UserClassSpec> defaultClasses();

struct PopulationOptions {
  std::uint64_t scholars = 1'000'000;
  std::uint64_t seed = 2015;
  // Fraction of previously-blocked scholars (Fig. 3's 74% "no bypass") who
  // have adopted ScholarCloud. 0 = pre-deployment baseline; raising it is
  // the paper's §6 adoption story.
  double sc_adoption = 0.0;
  // Size of the Zipf query catalog (distinct cache keys) and its exponent.
  int query_catalog = 512;
  double zipf_s = 1.1;
};

class PopulationModel {
 public:
  PopulationModel(PopulationOptions options,
                  std::vector<UserClassSpec> classes = defaultClasses());

  const std::vector<UserClassSpec>& classes() const noexcept {
    return classes_;
  }
  std::uint64_t scholars() const noexcept { return options_.scholars; }

  // Classes partition the id space contiguously: [classBegin(i),
  // classEnd(i)). Contiguity keeps "pick a random member of class i" one
  // uniform draw instead of rejection sampling over hashes.
  std::uint64_t classBegin(std::size_t i) const { return class_begin_[i]; }
  std::uint64_t classEnd(std::size_t i) const { return class_begin_[i + 1]; }
  std::uint64_t classSize(std::size_t i) const {
    return classEnd(i) - classBegin(i);
  }
  std::size_t classOf(std::uint64_t user_id) const;

  // Diurnal activity of class `i` at sim time `t` (piecewise-linear between
  // hourly weights, period = sim::kDay, mean 1.0 over the day).
  double diurnal(std::size_t i, sim::Time t) const;

  // Expected class-wide arrival rate (accesses/second) at sim time `t`:
  //   classSize(i) * accesses_per_day * diurnal(i, t) / 86400.
  double classRatePerSecond(std::size_t i, sim::Time t) const;

  // Deterministic per-user access method: the survey distribution mapped
  // onto the flow model's methods. Survey kOther (free web proxies) takes
  // the ScholarCloud profile shape; survey kNone scholars attempt kDirect
  // unless sc_adoption converts them (per-user hash, stable under any call
  // order).
  Method methodOf(std::uint64_t user_id) const noexcept;

  // A member of class `i`: one uniform draw over the class (rejection
  // sampling may repeat it), from a Bound built once per class.
  std::uint64_t sampleUser(std::size_t i, sim::Rng& rng) const;

  // One uniform draw: a Zipf-distributed query rank in [0, query_catalog),
  // queryRankOf(rng.uniformDouble()).
  int sampleQueryRank(sim::Rng& rng) const;

  // The rank of uniform `u` in [0, 1): the first rank whose Zipf CDF edge
  // exceeds u (std::upper_bound over the edges). A guide table of
  // kZipfGuide entries, built once, starts the search at or just before
  // the answer.
  int queryRankOf(double u) const;
  static constexpr std::size_t kZipfGuide = 1024;  // a power of two

  // The number of ranks sampleQueryRank can return: [0, queryCatalog()).
  std::size_t queryCatalog() const noexcept { return zipf_cdf_.size(); }

  // The cache key the domestic proxy would use for query `rank` (host +
  // path; rank 0 is the Scholar home page — the hottest key, and the same
  // key the packet-level cohort's first hit inserts).
  static std::string queryCacheKey(int rank);

 private:
  PopulationOptions options_;
  std::vector<UserClassSpec> classes_;
  std::vector<std::uint64_t> class_begin_;  // size classes_.size() + 1
  std::vector<sim::Rng::Bound> class_draw_;  // boundOf(max(1, classSize(i)))
  survey::MethodSampler sampler_;
  std::uint64_t adoption_mix_;    // the seed's adoption hash, mixed once
  std::vector<double> zipf_cdf_;  // upper edges, ascending
  // zipf_guide_[k] = upper_bound(zipf_cdf_, k / kZipfGuide) as an index.
  std::array<std::uint32_t, kZipfGuide> zipf_guide_{};
};

}  // namespace sc::population
