#include "survey/survey.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sc::survey {

const char* accessMethodName(AccessMethod m) {
  switch (m) {
    case AccessMethod::kNone: return "none";
    case AccessMethod::kNativeVpn: return "native-vpn";
    case AccessMethod::kOpenVpn: return "openvpn";
    case AccessMethod::kTor: return "tor";
    case AccessMethod::kShadowsocks: return "shadowsocks";
    case AccessMethod::kOther: return "other";
    case AccessMethod::kServerless: return "serverless";
  }
  return "?";
}

double Tabulation::bypassFraction() const {
  return total == 0 ? 0.0
                    : static_cast<double>(bypassing) /
                          static_cast<double>(total);
}

double Tabulation::share(AccessMethod m) const {
  if (bypassing == 0) return 0.0;
  const auto it = by_method.find(m);
  const int n = it == by_method.end() ? 0 : it->second;
  return static_cast<double>(n) / static_cast<double>(bypassing);
}

double Tabulation::nativeWithinVpn() const {
  const auto nat = by_method.find(AccessMethod::kNativeVpn);
  const auto open = by_method.find(AccessMethod::kOpenVpn);
  const int n_native = nat == by_method.end() ? 0 : nat->second;
  const int n_open = open == by_method.end() ? 0 : open->second;
  const int vpn = n_native + n_open;
  return vpn == 0 ? 0.0
                  : static_cast<double>(n_native) / static_cast<double>(vpn);
}

std::string Tabulation::asText() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "responses=%d bypass=%.0f%% | VPN %.0f%% (native %.0f%% / open %.0f%%), "
      "Tor %.0f%%, Shadowsocks %.0f%%, other %.0f%%",
      total, bypassFraction() * 100,
      (share(AccessMethod::kNativeVpn) + share(AccessMethod::kOpenVpn)) * 100,
      nativeWithinVpn() * 100, (1 - nativeWithinVpn()) * 100,
      share(AccessMethod::kTor) * 100, share(AccessMethod::kShadowsocks) * 100,
      share(AccessMethod::kOther) * 100);
  return buf;
}

double bypassShare(AccessMethod m) {
  const double vpn = Figure3::kVpnShare;
  switch (m) {
    case AccessMethod::kNone: return 0.0;
    case AccessMethod::kNativeVpn: return vpn * Figure3::kNativeVpnWithinVpn;
    case AccessMethod::kOpenVpn: return vpn * Figure3::kOpenVpnWithinVpn;
    case AccessMethod::kTor: return Figure3::kTorShare;
    case AccessMethod::kShadowsocks: return Figure3::kShadowsocksShare;
    case AccessMethod::kOther: return Figure3::kOtherShare;
    // Not a July-2015 survey answer; it only enters via MethodSampler's
    // what-if overlay.
    case AccessMethod::kServerless: return 0.0;
  }
  return 0.0;
}

std::vector<MethodShare> populationShares() {
  std::vector<MethodShare> shares;
  shares.push_back({AccessMethod::kNone, 1.0 - Figure3::kBypassFraction});
  for (const AccessMethod m :
       {AccessMethod::kNativeVpn, AccessMethod::kOpenVpn, AccessMethod::kTor,
        AccessMethod::kShadowsocks, AccessMethod::kOther}) {
    shares.push_back({m, Figure3::kBypassFraction * bypassShare(m)});
  }
  return shares;
}

namespace {

// SplitMix64 finalizer: the per-user hash behind MethodSampler. Fixed
// constants (not std::hash — implementations differ) so assignments are
// identical on every platform and library.
std::uint64_t mixU64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

MethodSampler::MethodSampler(std::uint64_t seed, double serverless_share)
    : seed_mix_(mixU64(seed)), shares_(populationShares()) {
  const double sv = std::clamp(serverless_share, 0.0, 1.0);
  double acc = 0;
  for (auto& s : shares_) {
    acc += s.share * (1.0 - sv);
    s.share = acc;  // convert to CDF upper edges
  }
  // Absorb rounding in the last Fig. 3 bucket; everything above it is the
  // serverless overlay. At sv == 0 this is exactly the historical CDF —
  // no extra bucket, no edge moved, methodOf bit-identical for every id.
  shares_.back().share = 1.0 - sv;
  if (sv > 0.0) shares_.push_back({AccessMethod::kServerless, 1.0});
}

AccessMethod MethodSampler::methodOf(std::uint64_t user_id) const noexcept {
  const std::uint64_t h = mixU64(seed_mix_ ^ mixU64(user_id));
  // 53-bit mantissa -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  for (const auto& s : shares_) {
    if (u < s.share) return s.method;
  }
  return shares_.back().method;
}

std::vector<SurveyResponse> synthesizeResponses(sim::Rng& rng, int n) {
  // Largest-remainder apportionment against the Fig. 3 distribution.
  const int bypassing = static_cast<int>(
      std::lround(Figure3::kBypassFraction * n));
  struct Quota {
    AccessMethod method;
    double target;
    int count = 0;
  };
  std::vector<Quota> quotas;
  for (const AccessMethod m :
       {AccessMethod::kNativeVpn, AccessMethod::kOpenVpn, AccessMethod::kTor,
        AccessMethod::kShadowsocks, AccessMethod::kOther}) {
    quotas.push_back({m, bypassShare(m)});
  }
  int assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t i = 0; i < quotas.size(); ++i) {
    const double exact = quotas[i].target * bypassing;
    quotas[i].count = static_cast<int>(exact);
    assigned += quotas[i].count;
    remainders.emplace_back(exact - quotas[i].count, i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < bypassing && i < remainders.size(); ++i) {
    ++quotas[remainders[i].second].count;
    ++assigned;
  }

  static constexpr const char* kDepartments[] = {
      "Physics",   "Chemistry",  "Life Sciences", "Economics",
      "Law",       "Humanities", "Architecture",  "Medicine",
      "Materials", "Computer Science"};

  std::vector<SurveyResponse> responses;
  responses.reserve(static_cast<std::size_t>(n));
  int id = 1;
  for (const auto& q : quotas) {
    for (int i = 0; i < q.count; ++i) {
      SurveyResponse r;
      r.respondent_id = id++;
      r.department = kDepartments[rng.uniformU64(std::size(kDepartments))];
      r.bypasses_gfw = true;
      r.method = q.method;
      responses.push_back(std::move(r));
    }
  }
  while (static_cast<int>(responses.size()) < n) {
    SurveyResponse r;
    r.respondent_id = id++;
    r.department = kDepartments[rng.uniformU64(std::size(kDepartments))];
    r.bypasses_gfw = false;
    r.method = AccessMethod::kNone;
    responses.push_back(std::move(r));
  }
  // Shuffle so respondent ids don't encode the method.
  for (std::size_t i = responses.size(); i > 1; --i) {
    const std::size_t j = rng.uniformU64(i);
    std::swap(responses[i - 1], responses[j]);
  }
  return responses;
}

Tabulation tabulate(const std::vector<SurveyResponse>& responses) {
  Tabulation t;
  t.total = static_cast<int>(responses.size());
  for (const auto& r : responses) {
    if (!r.bypasses_gfw) continue;
    ++t.bypassing;
    ++t.by_method[r.method];
  }
  return t;
}

}  // namespace sc::survey
