// Shared plumbing for the figure benches: a standard five-method campaign
// sweep at the paper's cadence (one access per simulated minute), scaled to
// SC_BENCH_ACCESSES accesses (default 120; set the environment variable to
// 1440 for the paper's full day).
//
// Every bench also understands a small common command line:
//   --trace FILE     enable the obs::Tracer and dump the event trace to FILE
//                    (.csv suffix selects CSV, anything else JSONL)
//   --metrics FILE   dump the obs::Registry snapshot to FILE after the sweep
//   --spans FILE     enable the obs::SpanTracer and dump the span trees to
//                    FILE (.json suffix selects Chrome trace_event format
//                    for chrome://tracing, anything else JSONL)
//   --accesses N     override SC_BENCH_ACCESSES / the default
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "measure/campaign.h"
#include "measure/resource_model.h"
#include "measure/testbed.h"
#include "obs/export.h"

namespace sc::bench {

inline int accessesFromEnv(int fallback = 120) {
  if (const char* env = std::getenv("SC_BENCH_ACCESSES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// Parses a list of positive integers from the named environment variable;
// any run of non-digits separates values. Empty when unset or digit-free.
inline std::vector<int> parseIntList(const char* env_name) {
  std::vector<int> out;
  const char* env = std::getenv(env_name);
  if (env == nullptr) return out;
  int v = 0;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      v = v * 10 + (*p - '0');
    } else {
      if (v > 0) out.push_back(v);
      v = 0;
      if (*p == '\0') break;
    }
  }
  return out;
}

inline int intFromEnv(const char* env_name, int fallback) {
  const std::vector<int> v = parseIntList(env_name);
  return v.empty() ? fallback : v.front();
}

// Host seconds since `start`, the denominator of every rate a bench
// reports. No simulated result reads it.
// sclint:allow(det-wallclock) benches report the host's wall-clock rates
inline double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(decltype(start)::clock::now() - start)
      .count();
}

// True when two scalability sweeps agree bit for bit (the serial-vs-parallel
// checks).
inline bool samePoints(const std::vector<measure::ScalabilityPoint>& x,
                       const std::vector<measure::ScalabilityPoint>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].clients != y[i].clients || x[i].plt_mean_s != y[i].plt_mean_s ||
        x[i].plt_p95_s != y[i].plt_p95_s || x[i].failures != y[i].failures)
      return false;
  }
  return true;
}

// SC_BENCH_THREADS: worker count for the parallel campaign executor.
// 0 (or unset) means std::thread::hardware_concurrency().
inline unsigned threadsFromEnv() {
  return static_cast<unsigned>(intFromEnv("SC_BENCH_THREADS", 0));
}

// Common bench options parsed from argv. Unknown arguments are rejected so a
// typo'd flag fails loudly instead of silently running the default sweep.
struct BenchArgs {
  std::string trace_path;    // empty = tracing off
  std::string metrics_path;  // empty = no metrics dump
  std::string spans_path;    // empty = span recording off
  int accesses = 0;          // 0 = use accessesFromEnv
  bool ok = true;
};

inline BenchArgs parseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        args.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--trace") == 0) {
      if (const char* v = value("--trace")) args.trace_path = v;
    } else if (std::strcmp(a, "--metrics") == 0) {
      if (const char* v = value("--metrics")) args.metrics_path = v;
    } else if (std::strcmp(a, "--spans") == 0) {
      if (const char* v = value("--spans")) args.spans_path = v;
    } else if (std::strcmp(a, "--accesses") == 0) {
      if (const char* v = value("--accesses")) args.accesses = std::atoi(v);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fprintf(stderr,
                   "usage: %s [--trace FILE] [--metrics FILE] [--spans FILE] "
                   "[--accesses N]\n",
                   argv[0]);
      args.ok = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", a);
      args.ok = false;
    }
  }
  return args;
}

// Streaming writer for the BENCH_*.json artifacts: nested objects/arrays
// with automatic comma placement and two-space indentation. Numbers go
// through %.6g / %lld so dumps are byte-stable across runs; strings are
// emitted verbatim (keys and values here never need escaping).
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  JsonWriter& beginObject(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonWriter& endObject() {
    close('}');
    return *this;
  }
  JsonWriter& beginArray(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonWriter& endArray() {
    close(']');
    return *this;
  }

  JsonWriter& field(const char* key, double v) {
    prefix(key);
    std::fprintf(out_, "%.6g", v);
    return *this;
  }
  JsonWriter& field(const char* key, bool v) {
    prefix(key);
    std::fputs(v ? "true" : "false", out_);
    return *this;
  }
  JsonWriter& field(const char* key, const char* v) {
    prefix(key);
    std::fprintf(out_, "\"%s\"", v);
    return *this;
  }
  JsonWriter& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }
  template <class T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& field(const char* key, T v) {
    prefix(key);
    if constexpr (std::is_signed_v<T>)
      std::fprintf(out_, "%lld", static_cast<long long>(v));
    else
      std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
    return *this;
  }
  // Array elements (no key).
  template <class T>
  JsonWriter& element(T v) {
    return field(nullptr, v);
  }

 private:
  void prefix(const char* key) {
    if (!first_.empty()) {
      std::fputs(first_.back() ? "\n" : ",\n", out_);
      first_.back() = false;
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", out_);
    }
    if (key != nullptr) std::fprintf(out_, "\"%s\": ", key);
  }
  void open(const char* key, char bracket) {
    prefix(key);
    std::fputc(bracket, out_);
    first_.push_back(true);
  }
  void close(char bracket) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputc('\n', out_);
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", out_);
    }
    std::fputc(bracket, out_);
    if (first_.empty()) std::fputc('\n', out_);
  }

  std::FILE* out_;
  std::vector<bool> first_;
};

// The five methods of Fig. 2/5/6, in the paper's presentation order.
inline const std::vector<measure::Method>& paperMethods() {
  static const std::vector<measure::Method> methods = {
      measure::Method::kNativeVpn, measure::Method::kOpenVpn,
      measure::Method::kTor, measure::Method::kShadowsocks,
      measure::Method::kScholarCloud};
  return methods;
}

struct SweepResult {
  std::vector<measure::CampaignResult> campaigns;  // index-aligned to methods
};

// `with_serverless` appends a sixth, measured-only campaign (the ephemeral
// serverless method — no paper column to compare against). It runs AFTER the
// five paper methods on the same testbed, so their campaigns stay
// byte-identical to a sweep without it.
inline SweepResult runFiveMethodSweep(int accesses, bool measure_rtt,
                                      std::uint64_t seed = 42,
                                      bool cold_cache = false,
                                      const BenchArgs* args = nullptr,
                                      bool with_serverless = false) {
  SweepResult sweep;
  measure::TestbedOptions topts;
  topts.seed = seed;
  if (args != nullptr && !args->trace_path.empty()) topts.tracing = true;
  if (args != nullptr && !args->spans_path.empty()) topts.spans = true;
  measure::Testbed tb(topts);
  measure::CampaignOptions copts;
  copts.accesses = accesses;
  copts.measure_rtt = measure_rtt;
  copts.cold_cache = cold_cache;
  std::uint32_t tag = 100;
  for (const auto method : paperMethods()) {
    auto result = measure::runAccessCampaign(tb, method, tag++, copts);
    if (!result.setup_ok)
      std::fprintf(stderr, "WARNING: %s setup failed\n",
                   measure::methodName(method));
    sweep.campaigns.push_back(std::move(result));
  }
  if (with_serverless) {
    auto result =
        measure::runAccessCampaign(tb, measure::Method::kServerless, tag++,
                                   copts);
    if (!result.setup_ok)
      std::fprintf(stderr, "WARNING: Serverless setup failed\n");
    sweep.campaigns.push_back(std::move(result));
  }
  if (args != nullptr) {
    if (!args->trace_path.empty() &&
        obs::dumpTrace(tb.hub().tracer(), args->trace_path)) {
      std::fprintf(stderr, "trace: %zu events -> %s\n",
                   tb.hub().tracer().events().size(),
                   args->trace_path.c_str());
    }
    if (!args->spans_path.empty() &&
        obs::dumpSpans(tb.hub().spans(), args->spans_path)) {
      std::fprintf(stderr, "spans: %zu -> %s\n", tb.hub().spans().spans().size(),
                   args->spans_path.c_str());
    }
    if (!args->metrics_path.empty()) {
      // Simulator tallies are published at dump time (they are accessors,
      // not registry instruments). Wallclock stays on stderr: it is the one
      // nondeterministic number and must not enter the deterministic dump.
      auto& reg = tb.hub().registry();
      reg.gauge("sim.events_executed")
          ->set(static_cast<double>(tb.sim().eventsExecuted()));
      reg.gauge("sim.max_queue_depth")
          ->set(static_cast<double>(tb.sim().maxQueueDepth()));
      if (obs::dumpMetrics(reg, args->metrics_path)) {
        std::fprintf(stderr, "metrics -> %s (%.2fs wallclock, %llu events)\n",
                     args->metrics_path.c_str(), tb.sim().wallSeconds(),
                     static_cast<unsigned long long>(
                         tb.sim().eventsExecuted()));
      }
    }
  }
  return sweep;
}

}  // namespace sc::bench
