#include "measure/campaign.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "measure/cell_world.h"
#include "measure/parallel.h"
#include "obs/hub.h"
#include "util/hash.h"

namespace sc::measure {

namespace {
// How long a client's method set-up (VPN up, PAC installed, ...) may take.
constexpr sim::Time kSetupTimeout = 2 * sim::kMinute;

// Rough connections-per-access estimate per method (used by the memory
// model): main + subresources + method-specific extras.
int connectionsPerAccess(Method m) {
  switch (m) {
    case Method::kShadowsocks: return 9;  // + auth connection
    case Method::kTor: return 8;
    case Method::kScholarCloud: return 7;
    case Method::kServerless: return 7;  // same PAC split-proxy shape
    default: return 8;  // http redirect + https main + subresources + record
  }
}

// What a campaign's callbacks write, shared with the campaign.
struct CampaignTally {
  std::string host;
  bool cold_cache = false;
  bool ready = false;
  bool ready_ok = false;
  int done_accesses = 0;
  int successes = 0;
  int failures = 0;
  Samples plt_first, plt_sub, rtt;
};

}  // namespace

BorderWireTap::Verdict BorderWireTap::onPacket(net::Packet& pkt,
                                               net::Direction dir, net::Link&) {
  wire.addByte(static_cast<std::uint8_t>(dir));
  if (pkt.isTcp()) {
    const net::TcpSeg& t = pkt.tcp();
    wire.add(t.seq);
    wire.add(t.ack);
    wire.addByte(static_cast<std::uint8_t>(
        t.flags.syn | t.flags.ack << 1 | t.flags.fin << 2 | t.flags.rst << 3 |
        t.flags.psh << 4));
  }
  wire.add(static_cast<std::uint64_t>(pkt.payload.size()));
  wire.add(std::string_view(reinterpret_cast<const char*>(pkt.payload.data()),
                            pkt.payload.size()));
  return Verdict::kPass;
}

CampaignResult runAccessCampaign(Testbed& tb, Method method, std::uint32_t tag,
                                 CampaignOptions options) {
  CampaignResult result;
  result.method = method;
  result.connections_estimate = connectionsPerAccess(method);

  auto& sim = tb.sim();
  if (obs::Tracer* tr = obs::tracerOf(sim)) {
    obs::Event ev;
    ev.at = sim.now();
    ev.type = obs::EventType::kNote;
    ev.what = "campaign_start";
    ev.detail = std::string(methodName(method)) + " host=" + options.host;
    ev.tag = tag;
    ev.a = options.accesses;
    tr->record(ev);
  }
  // Every callback this campaign hands out captures the tally and pointers
  // into the testbed, never this frame: a setup, access or probe callback
  // that fires after the campaign returns writes to the tally, which
  // nothing reads any more.
  auto tally = std::make_shared<CampaignTally>();
  tally->host = options.host;
  tally->cold_cache = options.cold_cache;
  Testbed::Client* client = &tb.addClient(method, tag, [tally](bool ok) {
    tally->ready = true;
    tally->ready_ok = ok;
  });
  sim.runWhile([&] { return tally->ready; }, sim.now() + kSetupTimeout);
  result.setup_ok = tally->ready && tally->ready_ok;
  if (!result.setup_ok) {
    tb.retireClient(*client);
    return result;
  }

  // ScholarCloud's GFW-crossing leg is the proxies' tunnel; fold its loss
  // in. The serverless method has the same split shape — its border leg is
  // the gateway fleet's fronted dials, tagged kServerlessTunnelTag.
  const bool include_tunnel =
      method == Method::kScholarCloud || method == Method::kServerless;
  const std::uint32_t tunnel_tag = method == Method::kServerless
                                       ? Testbed::kServerlessTunnelTag
                                       : Testbed::kScTunnelTag;
  const auto stats_before = tb.network().tagStats(tag);
  const auto tunnel_before = tb.network().tagStats(tunnel_tag);
  const std::uint64_t bytes_before = client->accessLinkBytes();

  Testbed* testbed = &tb;
  std::vector<sim::EventHandle> scheduled;
  const sim::Time t0 = sim.now() + sim::kSecond;
  for (int i = 0; i < options.accesses; ++i) {
    const sim::Time at = t0 + static_cast<sim::Time>(i) * options.interval;
    scheduled.push_back(sim.scheduleAt(at, [tally, client, testbed] {
      if (tally->cold_cache) client->browser->clearCaches();
      client->browser->loadPage(
          tally->host, [tally, testbed](http::PageLoadResult r) {
            ++tally->done_accesses;
            // One SLO sample per completed access (when an engine is
            // installed): the burn-rate alert stream for this method's
            // error budget.
            if (obs::SloEngine* slo = testbed->hub().slo())
              slo->sample(testbed->sim().now(), r.ok, r.plt);
            if (!r.ok) {
              ++tally->failures;
              return;
            }
            ++tally->successes;
            (r.first_visit ? tally->plt_first : tally->plt_sub)
                .add(sim::toSeconds(r.plt));
          });
    }));
    if (options.measure_rtt && i % 2 == 1) {
      scheduled.push_back(
          sim.scheduleAt(at + options.interval / 2, [tally, client] {
            client->browser->pingOrigin(
                tally->host, [tally](std::optional<sim::Time> t) {
                  if (t.has_value()) tally->rtt.add(sim::toMillis(*t));
                });
          }));
    }
  }

  const sim::Time deadline = t0 +
                             static_cast<sim::Time>(options.accesses + 2) *
                                 options.interval +
                             2 * sim::kMinute;
  sim.runWhile([&] { return tally->done_accesses >= options.accesses; },
               deadline);
  // The campaign is over. What it scheduled and has not fired (the last RTT
  // probe is due half an interval after the last access starts) never
  // fires, and its client stops, so the next campaign on this testbed runs
  // alone, as each method did in the paper.
  for (sim::EventHandle& ev : scheduled) ev.cancel();
  tb.retireClient(*client);
  sim.runUntil(sim.now() + 5 * sim::kSecond);  // drain stragglers

  result.successes = tally->successes;
  result.failures = tally->failures;
  result.plt_first_s = tally->plt_first.summarize();
  result.plt_sub_s = tally->plt_sub.summarize();
  result.rtt_ms = tally->rtt.summarize();
  std::uint64_t originated = 0, lost = 0;
  if (include_tunnel) {
    // Only the proxies' tunnel crosses the GFW; the campus hop is lossless
    // and would just dilute the number the paper reports.
    const auto tunnel_after = tb.network().tagStats(tunnel_tag);
    originated = tunnel_after.originated - tunnel_before.originated;
    lost = tunnel_after.lostTotal() - tunnel_before.lostTotal();
  } else {
    const auto stats_after = tb.network().tagStats(tag);
    originated = stats_after.originated - stats_before.originated;
    lost = stats_after.lostTotal() - stats_before.lostTotal();
  }
  result.plr_pct = originated == 0 ? 0.0
                                   : 100.0 * static_cast<double>(lost) /
                                         static_cast<double>(originated);
  result.client_bytes = client->accessLinkBytes() - bytes_before;
  const int denom = std::max(1, result.successes + result.failures);
  result.traffic_kb_per_access =
      static_cast<double>(result.client_bytes) / 1024.0 / denom;
  if (obs::Registry* reg = obs::registryOf(sim)) {
    reg->counter("campaign.accesses")->inc(
        static_cast<std::uint64_t>(options.accesses));
    reg->counter("campaign.successes")->inc(
        static_cast<std::uint64_t>(result.successes));
    reg->counter("campaign.failures")->inc(
        static_cast<std::uint64_t>(result.failures));
  }
  return result;
}

ScalabilityPoint runScalabilityPoint(Method method, int n_clients,
                                     const ScalabilityOptions& options,
                                     ScalabilityExports* exports) {
  TestbedOptions topts;
  topts.seed = options.seed + static_cast<std::uint64_t>(n_clients);
  topts.tracing = exports != nullptr;
  BorderWireTap tap;  // outlives the testbed whose link points at it
  Testbed tb(topts);
  auto& sim = tb.sim();
  if (exports != nullptr) tb.world().borderLink().addFilter(&tap);

  struct ClientState {
    Testbed::Client* client = nullptr;
    bool ready = false;
    bool ok = false;
  };
  std::vector<ClientState> states(static_cast<std::size_t>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    auto& st = states[static_cast<std::size_t>(i)];
    st.client = &tb.addClient(method, 1000u + static_cast<std::uint32_t>(i),
                              [&st](bool ok) {
                                st.ready = true;
                                st.ok = ok;
                              });
  }
  sim.runWhile(
      [&] {
        for (const auto& st : states)
          if (!st.ready) return false;
        return true;
      },
      sim.now() + 5 * sim::kMinute);

  Samples plt;
  int failures = 0;
  int completed = 0;
  const int total_expected = n_clients * options.accesses_per_client;

  // Stagger client start so arrivals are spread across the think time.
  const sim::Time t0 = sim.now() + sim::kSecond;
  for (int i = 0; i < n_clients; ++i) {
    auto& st = states[static_cast<std::size_t>(i)];
    if (!st.ok) {
      failures += options.accesses_per_client;
      completed += options.accesses_per_client;
      continue;
    }
    const sim::Time offset =
        options.think_time * static_cast<sim::Time>(i) /
        std::max(1, n_clients);
    for (int a = 0; a < options.accesses_per_client; ++a) {
      sim.scheduleAt(
          t0 + offset + static_cast<sim::Time>(a) * options.think_time,
          [&, i] {
            auto* browser = states[static_cast<std::size_t>(i)].client->browser.get();
            browser->clearCaches();  // fresh session per access
            browser->loadPage(
                Testbed::kScholarHost, [&](http::PageLoadResult r) {
                  ++completed;
                  if (!r.ok) {
                    ++failures;
                    return;
                  }
                  plt.add(sim::toSeconds(r.plt));
                });
          });
    }
  }

  const sim::Time deadline =
      t0 +
      static_cast<sim::Time>(options.accesses_per_client + 4) *
          options.think_time +
      3 * sim::kMinute;
  sim.runWhile([&] { return completed >= total_expected; }, deadline);

  if (exports != nullptr) {
    captureJsonl(tb.hub(), exports->metrics_jsonl, &exports->trace_jsonl);
    exports->border_wire_hash = tap.wire.value();
  }
  const Summary s = plt.summarize();
  return ScalabilityPoint{n_clients, s.mean, s.p95, failures};
}

std::vector<ScalabilityPoint> runScalability(Method method,
                                             ScalabilityOptions options,
                                             unsigned threads) {
  return runCells(options.client_counts, threads, [&](int n_clients) {
    return runScalabilityPoint(method, n_clients, options);
  });
}

}  // namespace sc::measure
