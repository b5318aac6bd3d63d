// Tor client: what the Tor Browser bundle's tor daemon does.
//
// Bootstrap walks the path a client inside the GFW actually walks:
//   1. try to fetch a fresh consensus from a directory authority — blocked
//      (IP-blocklisted), so fall back to the cached consensus after a 3 s
//      timeout;
//   2. try a TLS connection to a public guard — its address came from the
//      public consensus, so the GFW has it blocklisted too; give up after
//      4 s;
//   3. fall back to the unlisted bridge via the meek front, and build the
//      3-hop circuit (bridge → middle → exit) over it.
// Every one of those dead ends is wall-clock time, which is why the paper
// measures 13–20 s first-time PLTs for Tor.
//
// Exposes a local SOCKS5 port (9050) exactly like the real client; streams
// are multiplexed onto the circuit as RELAY_BEGIN/DATA/END cells.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "http/socks.h"
#include "tor/meek.h"
#include "tor/relay.h"

namespace sc::tor {

struct TorClientOptions {
  net::Endpoint directory;                      // authority (likely blocked)
  std::vector<RelayDescriptor> cached_consensus;  // shipped with the bundle
  net::Port socks_port = 9050;
  bool try_direct_guard = true;
  MeekClientOptions meek;                       // bridge line (out of band)
};

class TorClient {
 public:
  TorClient(transport::HostStack& stack, TorClientOptions options,
            std::uint32_t measure_tag = 0);

  // Builds (or rebuilds) a circuit. Requests arriving before readiness are
  // queued, so calling this explicitly is optional.
  void bootstrap(std::function<void(bool)> cb);

  // Tears the circuit down and closes its link (a meek link stops polling),
  // leaving the client idle; a later request bootstraps afresh.
  void shutdown() { teardownCircuit(); }

  net::Endpoint socksEndpoint() const {
    return net::Endpoint{stack_.node().primaryIp(), options_.socks_port};
  }
  bool ready() const noexcept { return state_ == State::kReady; }
  sim::Time lastBootstrapDuration() const noexcept { return bootstrap_time_; }
  bool usedMeek() const noexcept { return used_meek_; }
  int circuitsBuilt() const noexcept { return circuits_built_; }

 private:
  enum class State { kIdle, kBootstrapping, kReady };

  class AppStream;
  using AppStreamPtr = std::shared_ptr<AppStream>;

  // -- bootstrap chain --
  void fetchConsensus(std::function<void(std::vector<RelayDescriptor>)> cb);
  void tryDirectGuard(std::function<void(transport::Stream::Ptr)> cb);
  void buildMeekCircuit();  // the bridge fallback: a meek link, then a circuit
  void buildCircuit(transport::Stream::Ptr link);
  void extendNext();
  void bootstrapDone(bool ok);

  // -- cell plumbing --
  void onLinkData(ByteView data);
  void onCell(Cell cell);
  void onRecognized(RelayPayload relay);
  void sendRelay(const RelayPayload& relay);
  void teardownCircuit();

  // -- socks --
  void onSocksRequest(transport::ConnectTarget target,
                      transport::Stream::Ptr client,
                      std::function<void(bool)> respond);
  void openAppStream(const transport::ConnectTarget& target,
                     transport::Stream::Ptr socks_client,
                     std::function<void(bool)> respond);

  transport::HostStack& stack_;
  TorClientOptions options_;
  std::uint32_t tag_;
  std::unique_ptr<http::SocksServer> socks_;
  transport::TcpListener::Ptr socks_listener_;

  State state_ = State::kIdle;
  std::vector<std::function<void(bool)>> waiting_;
  sim::Time bootstrap_started_ = 0;
  sim::Time bootstrap_time_ = 0;
  std::uint64_t bootstrap_span_ = 0;  // obs::SpanId for the whole bootstrap
  bool used_meek_ = false;
  int circuits_built_ = 0;

  std::vector<RelayDescriptor> consensus_;
  std::vector<RelayDescriptor> circuit_plan_;  // hops to extend through
  std::size_t hops_built_ = 0;

  transport::Stream::Ptr link_;
  CellReader reader_;
  std::uint32_t circ_id_ = 0;
  std::vector<HopCrypto> hops_;
  std::vector<Bytes> hop_keys_;  // pending key material per planned hop

  // std::map, not unordered: teardownCircuit() walks both of these firing
  // user callbacks (remoteEnd, begin-failure), so iteration order reaches
  // the event trace — ascending stream-id order keeps it deterministic.
  std::map<std::uint16_t, AppStreamPtr> streams_;
  std::map<std::uint16_t, std::function<void(bool)>> pending_begin_;
  std::uint16_t next_stream_id_ = 1;
};

}  // namespace sc::tor
