// The §4.1 user survey (371 responses via the Tsinghua BBS, July 2015) and
// its tabulation — Fig. 3's data.
//
// The paper publishes only the aggregate distribution; we embed it as the
// ground truth, provide a generator that synthesizes individual responses
// consistent with it (for examples/tests that want per-respondent records),
// and the tabulation code that turns responses back into Fig. 3.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace sc::survey {

enum class AccessMethod {
  kNone,         // does not bypass the GFW
  kNativeVpn,
  kOpenVpn,
  kTor,
  kShadowsocks,
  kOther,        // Free Gate, hosts-file edits, other web proxies...
  kServerless,   // ephemeral cloud functions — post-survey what-if, not Fig. 3
};

const char* accessMethodName(AccessMethod m);

struct SurveyResponse {
  int respondent_id = 0;
  std::string department;     // mostly non-CS, per §4.1
  bool bypasses_gfw = false;
  AccessMethod method = AccessMethod::kNone;
};

// Fig. 3 ground truth.
struct Figure3 {
  static constexpr int kResponses = 371;
  static constexpr double kBypassFraction = 0.26;
  // Distribution among those who bypass:
  static constexpr double kVpnShare = 0.43;
  static constexpr double kNativeVpnWithinVpn = 0.93;
  static constexpr double kOpenVpnWithinVpn = 0.07;
  static constexpr double kTorShare = 0.02;
  static constexpr double kShadowsocksShare = 0.21;
  static constexpr double kOtherShare = 0.34;
};

struct Tabulation {
  int total = 0;
  int bypassing = 0;
  std::map<AccessMethod, int> by_method;  // among bypassing respondents

  double bypassFraction() const;
  // Share of `m` among bypassing respondents.
  double share(AccessMethod m) const;
  // Shares within the VPN group.
  double nativeWithinVpn() const;
  std::string asText() const;
};

// ---- the distribution as a reusable object ----------------------------

// Share of each method across the WHOLE surveyed population (kNone carries
// the non-bypassing 74%), derived from the Figure3 constants. Shares sum to
// 1 and the vector is in AccessMethod declaration order. This is the single
// source of truth consumed by synthesizeResponses, the Fig. 3 bench, and
// the population model's user-class mix.
struct MethodShare {
  AccessMethod method = AccessMethod::kNone;
  double share = 0;  // fraction of all respondents
};
std::vector<MethodShare> populationShares();

// Share of `m` among respondents who bypass at all (Fig. 3's pie).
double bypassShare(AccessMethod m);

// Seeded deterministic per-user method assignment: methodOf(id) is a pure
// function of (seed, id) — no statics, no stored per-user state, stable
// under any call order — so million-scholar populations can assign every
// user a consistent method without materializing them. Distinct seeds give
// distinct assignments with the same aggregate distribution.
class MethodSampler {
 public:
  // `serverless_share` is a what-if overlay on the Fig. 3 distribution: that
  // fraction of ALL respondents (drawn proportionally from every bucket,
  // kNone included) is reassigned to kServerless. At the default 0 the CDF
  // is bit-for-bit the historical Fig. 3 walk — methodOf(id) for every id is
  // unchanged, which the golden-hash regression test pins.
  explicit MethodSampler(std::uint64_t seed, double serverless_share = 0.0);

  AccessMethod methodOf(std::uint64_t user_id) const noexcept;

  // The cumulative distribution the sampler walks (population-wide shares,
  // upper edges ascending in AccessMethod declaration order).
  const std::vector<MethodShare>& shares() const noexcept { return shares_; }

 private:
  std::uint64_t seed_mix_;  // mixU64(seed), hashed once
  std::vector<MethodShare> shares_;  // share holds the CDF upper edge
};

// Synthesizes a response set whose tabulation matches Fig. 3 (deterministic
// largest-remainder allocation over populationShares(); rng only shuffles
// assignment order).
std::vector<SurveyResponse> synthesizeResponses(sim::Rng& rng,
                                                int n = Figure3::kResponses);

Tabulation tabulate(const std::vector<SurveyResponse>& responses);

}  // namespace sc::survey
