// Figure 7: scalability — mean PLT as concurrent clients grow
// {5,15,30,60,90,120,150,180} against each method's single-core server VM.
// (The paper omits Tor here too: nobody controls the public relays.)
//
// SC_BENCH_SCALE_CLIENTS overrides the client counts; SC_BENCH_THREADS sets
// the worker count for the parallel executor (results are identical for any
// thread count, only wall clock changes).
#include "bench_common.h"
#include "measure/report.h"
#include "measure/parallel.h"

int main() {
  using namespace sc;
  using namespace sc::measure;
  std::printf("Figure 7 — scalability (PLT vs concurrent clients)\n");

  const std::vector<Method> methods = {
      Method::kNativeVpn, Method::kOpenVpn, Method::kShadowsocks,
      Method::kScholarCloud};

  ScalabilityOptions opts;
  const std::vector<int> counts = bench::parseIntList("SC_BENCH_SCALE_CLIENTS");
  if (!counts.empty()) opts.client_counts = counts;
  const unsigned threads = bench::threadsFromEnv();

  Report report("Fig. 7: mean subsequent PLT seconds by concurrent clients",
                [&] {
                  std::vector<std::string> cols;
                  for (int n : opts.client_counts)
                    cols.push_back(std::to_string(n));
                  return cols;
                }());

  for (const auto method : methods) {
    const auto points = runScalability(method, opts, threads);
    ReportRow row;
    row.label = methodName(method);
    for (const auto& p : points) row.values.push_back(p.plt_mean_s);
    report.addRow(std::move(row));
  }
  report.print();
  std::printf(
      "\nShape checks (paper): Shadowsocks' PLT grows sharply past ~60 "
      "concurrent\nclients (per-session auth work saturating the single "
      "core); native VPN,\nOpenVPN and ScholarCloud grow roughly linearly, "
      "with OpenVPN and\nScholarCloud the flattest.\n");
  return 0;
}
