#include "population/population.h"

#include <algorithm>
#include <cmath>

namespace sc::population {

namespace {

// SplitMix64 finalizer (same construction as survey::MethodSampler's hash;
// fixed constants so per-user decisions are platform-stable).
std::uint64_t mixU64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// `seed_mix` is mixU64(seed ^ label), computed once per model.
double hashUnit(std::uint64_t seed_mix, std::uint64_t user_id) noexcept {
  const std::uint64_t h = mixU64(seed_mix ^ mixU64(user_id));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kAdoptionLabel = 0x5c'ad'09'71ULL;

}  // namespace

std::vector<UserClassSpec> defaultClasses() {
  std::vector<UserClassSpec> classes(3);

  classes[0].name = "faculty";
  classes[0].share = 0.15;
  classes[0].accesses_per_day = 12.0;
  // Office-hours shape: morning and afternoon peaks, quiet nights.
  classes[0].diurnal = {0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.4, 0.8,
                        1.6, 2.2, 2.4, 2.0, 1.2, 1.4, 2.0, 2.2,
                        2.0, 1.6, 1.0, 0.8, 0.6, 0.5, 0.4, 0.2};

  classes[1].name = "grad";
  classes[1].share = 0.55;
  classes[1].accesses_per_day = 6.0;
  // Lab shape: slow start, sustained afternoon, heavy evening tail.
  classes[1].diurnal = {0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.4,
                        0.9, 1.4, 1.7, 1.6, 1.2, 1.4, 1.7, 1.8,
                        1.8, 1.6, 1.4, 1.6, 1.8, 1.6, 1.2, 0.8};

  classes[2].name = "undergrad";
  classes[2].share = 0.30;
  classes[2].accesses_per_day = 2.0;
  // Coursework shape: almost everything after dinner.
  classes[2].diurnal = {0.4, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2,
                        0.5, 0.8, 1.0, 1.0, 0.8, 0.9, 1.1, 1.2,
                        1.3, 1.4, 1.6, 2.2, 2.6, 2.4, 1.8, 1.1};

  return classes;
}

PopulationModel::PopulationModel(PopulationOptions options,
                                 std::vector<UserClassSpec> classes)
    : options_(options),
      classes_(std::move(classes)),
      sampler_(options.seed),
      adoption_mix_(mixU64(options.seed ^ kAdoptionLabel)) {
  // Normalize each diurnal curve to mean 1.0 so accesses_per_day is the
  // daily budget no matter how the curve was sketched.
  for (auto& c : classes_) {
    double sum = 0;
    for (const double w : c.diurnal) sum += w;
    const double mean = sum / 24.0;
    if (mean > 0) {
      for (auto& w : c.diurnal) w /= mean;
    }
  }

  // Partition the id space by class share (largest-remainder on the floor
  // counts; the last class absorbs rounding so the partition covers every
  // scholar exactly once).
  class_begin_.resize(classes_.size() + 1, 0);
  std::uint64_t begin = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    class_begin_[i] = begin;
    const auto count = i + 1 == classes_.size()
                           ? options_.scholars - begin
                           : static_cast<std::uint64_t>(
                                 classes_[i].share *
                                 static_cast<double>(options_.scholars));
    begin += count;
  }
  class_begin_.back() = options_.scholars;
  class_draw_.reserve(classes_.size());
  for (std::size_t i = 0; i < classes_.size(); ++i)
    class_draw_.push_back(
        sim::Rng::boundOf(std::max<std::uint64_t>(1, classSize(i))));

  // Zipf CDF over the query catalog.
  const int n = std::max(1, options_.query_catalog);
  zipf_cdf_.resize(static_cast<std::size_t>(n));
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), options_.zipf_s);
    zipf_cdf_[static_cast<std::size_t>(r)] = total;
  }
  for (auto& edge : zipf_cdf_) edge /= total;
  zipf_cdf_.back() = 1.0;

  // Guide table: zipf_guide_[k] is the first rank whose edge exceeds k/K
  // (upper_bound at u = k/K), found in one merged pass over both sequences.
  // K is a power of two, so k/K and floor(u*K) are exact.
  std::size_t idx = 0;
  for (std::size_t k = 0; k < kZipfGuide; ++k) {
    const double edge =
        static_cast<double>(k) / static_cast<double>(kZipfGuide);
    while (!(edge < zipf_cdf_[idx])) ++idx;
    zipf_guide_[k] = static_cast<std::uint32_t>(idx);
  }
}

std::size_t PopulationModel::classOf(std::uint64_t user_id) const {
  const auto it = std::upper_bound(class_begin_.begin() + 1,
                                   class_begin_.end() - 1, user_id);
  return static_cast<std::size_t>(it - (class_begin_.begin() + 1));
}

double PopulationModel::diurnal(std::size_t i, sim::Time t) const {
  const auto& curve = classes_[i].diurnal;
  const double h = sim::fractionalHourOfDay(t);
  const int h0 = static_cast<int>(h) % 24;
  const int h1 = (h0 + 1) % 24;
  const double frac = h - static_cast<double>(h0);
  return curve[static_cast<std::size_t>(h0)] * (1.0 - frac) +
         curve[static_cast<std::size_t>(h1)] * frac;
}

double PopulationModel::classRatePerSecond(std::size_t i, sim::Time t) const {
  return static_cast<double>(classSize(i)) * classes_[i].accesses_per_day *
         diurnal(i, t) / 86400.0;
}

Method PopulationModel::methodOf(std::uint64_t user_id) const noexcept {
  switch (sampler_.methodOf(user_id)) {
    case survey::AccessMethod::kNativeVpn: return Method::kNativeVpn;
    case survey::AccessMethod::kOpenVpn: return Method::kOpenVpn;
    case survey::AccessMethod::kTor: return Method::kTor;
    case survey::AccessMethod::kShadowsocks: return Method::kShadowsocks;
    // Fig. 3's "other methods" are mostly free web proxies — the
    // ScholarCloud profile (split proxy, domestic hop) is the closest
    // path shape.
    case survey::AccessMethod::kOther: return Method::kScholarCloud;
    case survey::AccessMethod::kServerless: return Method::kServerless;
    case survey::AccessMethod::kNone: break;
  }
  // Non-bypassing scholars: adopted ScholarCloud, or still hitting the
  // blocked direct path.
  if (options_.sc_adoption > 0.0 &&
      hashUnit(adoption_mix_, user_id) < options_.sc_adoption)
    return Method::kScholarCloud;
  return Method::kDirect;
}

std::uint64_t PopulationModel::sampleUser(std::size_t i, sim::Rng& rng) const {
  return classBegin(i) + rng.uniform(class_draw_[i]);
}

int PopulationModel::sampleQueryRank(sim::Rng& rng) const {
  return queryRankOf(rng.uniformDouble());
}

int PopulationModel::queryRankOf(double u) const {
  // upper_bound(cdf, u) is monotone in u, so the answer for u lies at or
  // after the guide entry of u's 1/K bucket; the forward scan finishes it.
  // The last edge is 1.0 > u, so the scan stops inside the catalog.
  std::size_t idx = zipf_guide_[static_cast<std::size_t>(
      u * static_cast<double>(kZipfGuide))];
  while (!(u < zipf_cdf_[idx])) ++idx;
  return static_cast<int>(idx);
}

std::string PopulationModel::queryCacheKey(int rank) {
  // Must match the domestic proxy's cache key: host + path.
  if (rank <= 0) return "scholar.google.com/";
  return "scholar.google.com/scholar?q=q" + std::to_string(rank);
}

}  // namespace sc::population
