// Testbed: the full measurement world of §4.2, assembled.
//
//   - the simulated internet (World topology) with the GFW on the border;
//   - origins: scholar.google.com (blocked), www.amazon.com (US control),
//     www.tsinghua.edu.cn (domestic);
//   - a US resolver (clients' recursive path crosses the GFW -> poisonable)
//     and the GFW's active-probe vantage point inside China;
//   - method infrastructure: PPTP + L2TP servers, OpenVPN server + PKI,
//     ss-remote, the Tor network (directory, public guards/middles/exits —
//     all harvested into the GFW's IP blocklist — plus an unlisted bridge
//     behind a meek reflector fronted by a CDN), and the ScholarCloud
//     split-proxy pair (domestic proxy registered as an ICP, tunneling to
//     the one remote proxy through a fleet of one endpoint);
//   - client factory configuring a Browser per access method.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/remote_proxy.h"
#include "dns/server.h"
#include "fleet/fleet.h"
#include "gfw/gfw.h"
#include "http/browser.h"
#include "http/origin.h"
#include "measure/calibration.h"
#include "obs/hub.h"
#include "openvpn/openvpn.h"
#include "regulation/mps_investigation.h"
#include "serverless/cost.h"
#include "serverless/provider.h"
#include "shadowsocks/shadowsocks.h"
#include "tor/client.h"
#include "vpn/l2tp.h"
#include "vpn/pptp.h"

namespace sc::measure {

class ServerlessDeployment;

enum class Method {
  kNativeVpn = 0,
  kOpenVpn = 1,
  kTor = 2,
  kShadowsocks = 3,
  kScholarCloud = 4,
  kDirect = 5,     // no circumvention (blocked)
  kUsControl = 6,  // client in the US (uncensored baseline)
  kServerless = 7  // ephemeral cloud functions behind a fronted domain
};

// Number of Method values. The per-method exhaustiveness test walks
// [0, kMethodCount) over methodName and the flow-model/resource-model
// tables, so a new method cannot silently miss a switch.
inline constexpr std::size_t kMethodCount =
    static_cast<std::size_t>(Method::kServerless) + 1;

const char* methodName(Method m);

// Function endpoints the Testbed's serverless provider keeps warm. The
// serverless world is built lazily on the first kServerless client, so it
// costs nothing for other methods.
inline constexpr int kServerlessPrewarm = 2;

struct TestbedOptions {
  std::uint64_t seed = 42;
  net::WorldParams world = calibratedWorld();
  gfw::GfwConfig gfw = calibratedGfw();
  bool gfw_enabled = true;
  bool register_scholarcloud = true;  // pre-approved ICP (the deployed state)
  crypto::BlindingMode blinding_mode = crypto::BlindingMode::kByteMap;
  sim::Time ss_keepalive = 10 * sim::kSecond;  // paper default
  // Structured event tracing (obs::Tracer). Off by default: metrics are
  // always collected (they observe, never perturb), but the trace ring only
  // fills when requested.
  bool tracing = false;
  std::size_t trace_capacity = obs::Tracer::kDefaultCap;
  // Causal span recording (obs::SpanTracer). Off by default for the same
  // reason; span storage grows (never overwrites), so long campaigns should
  // export and clear between batches.
  bool spans = false;
  std::size_t span_reserve = 4096;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // A measurement client (the ThinkPad). `tag` labels its packets for loss
  // accounting. US-control clients are placed behind the US router.
  struct Client {
    net::Node* node = nullptr;
    std::unique_ptr<transport::HostStack> stack;
    std::unique_ptr<http::Browser> browser;
    net::Link* access_link = nullptr;
    Method method = Method::kDirect;
    std::uint32_t tag = 0;
    // Method-specific client-side machinery.
    std::unique_ptr<vpn::PptpClient> pptp;
    std::unique_ptr<openvpn::OpenVpnClient> ovpn;
    std::unique_ptr<shadowsocks::ShadowsocksLocal> ss_local;
    std::unique_ptr<tor::TorClient> tor_client;

    std::uint64_t accessLinkBytes() const {
      return access_link == nullptr
                 ? 0
                 : access_link->bytesCarried(net::Direction::kAtoB) +
                       access_link->bytesCarried(net::Direction::kBtoA);
    }
  };

  // Creates a client and configures its access method; `ready` fires once
  // the method is usable (VPN up, PAC installed, ...). Tor defers its
  // bootstrap to the first page load, like the real bundle.
  Client& addClient(Method method, std::uint32_t tag,
                    std::function<void(bool)> ready);

  // Stops what keeps a finished client busy: Tor's circuit and meek
  // polling, the PPTP control channel and its LCP echoes, OpenVPN's pings.
  // The client stays (its counters remain readable) but puts no more
  // traffic of its own on the testbed.
  void retireClient(Client& client);

  // ---- world handles ----
  sim::Simulator& sim() noexcept { return sim_; }
  obs::Hub& hub() noexcept { return hub_; }
  net::Network& network() noexcept { return network_; }
  net::World& world() noexcept { return *world_; }
  gfw::Gfw& gfw() noexcept { return *gfw_; }
  regulation::IcpRegistry& registry() noexcept { return registry_; }
  regulation::TcaAgency& tca() noexcept { return *tca_; }
  regulation::MpsInvestigation& mps() noexcept { return *mps_; }
  core::DomesticProxy& domesticProxy() noexcept { return *domestic_proxy_; }
  core::RemoteProxy& remoteProxy() noexcept { return *remote_proxy_; }
  core::Deployment& deployment() noexcept { return *deployment_; }
  http::WebOrigin& scholarOrigin() noexcept { return *scholar_origin_; }
  shadowsocks::ShadowsocksRemote& ssRemote() noexcept { return *ss_remote_; }
  net::Ipv4 usDnsIp() const { return us_dns_ip_; }
  net::Ipv4 scholarIp() const { return scholar_ip_; }
  net::Ipv4 amazonIp() const { return amazon_ip_; }
  net::Ipv4 ssRemoteIp() const { return ss_remote_ip_; }
  net::Ipv4 scRemoteIp() const { return sc_remote_stack_->node().primaryIp(); }
  // The GFW-visible egress of Tor-via-meek is the fronting CDN, not the
  // hidden bridge — banning it is the collateral-damage move.
  net::Ipv4 torCdnIp() const { return cdn_ip_; }
  transport::HostStack& scholarStack() noexcept { return *scholar_stack_; }
  transport::HostStack& vpnServerStack() noexcept { return *vpn_stack_; }

  const TestbedOptions& options() const noexcept { return options_; }
  static constexpr const char* kScholarHost = "scholar.google.com";
  static constexpr const char* kAmazonHost = "www.amazon.com";
  static constexpr const char* kDomesticHost = "www.tsinghua.edu.cn";

  // Measurement tag carried by the ScholarCloud tunnel (domestic <-> remote
  // proxy). The GFW-crossing leg of a ScholarCloud access belongs to the
  // proxies, not the client, so PLR is measured here (Fig. 5c).
  static constexpr std::uint32_t kScTunnelTag = 900;
  // Same role for the serverless method: the fronted dials from the
  // gateway's fleet to the function endpoints are the GFW-crossing leg.
  static constexpr std::uint32_t kServerlessTunnelTag = 901;
  // The innocuous SNI every fronted dial carries; the per-endpoint
  // hostnames never appear on the wire.
  static constexpr const char* kFrontDomain = "fn.cloud-front.example";

  // Serverless handles (valid once a kServerless client exists; null
  // before — the subsystem is built lazily to keep other methods' worlds,
  // and therefore their rng draws, byte-identical to the seed).
  serverless::FunctionProvider* serverlessProvider() noexcept;
  fleet::Fleet* serverlessFleet() noexcept;
  serverless::CostModel* serverlessCost() noexcept;

 private:
  void buildOrigins();
  void buildGfw();
  void buildMethodServers();
  void buildTorNetwork();
  void buildScholarCloud();
  void ensureServerless();

  TestbedOptions options_;
  sim::Simulator sim_;
  // Declared (and constructed) before network_ so every layer below sees
  // the hub at construction and can pre-resolve its metric handles.
  obs::Hub hub_;
  net::Network network_;
  std::unique_ptr<net::World> world_;

  // DNS + origins.
  std::unique_ptr<transport::HostStack> us_dns_stack_;
  std::unique_ptr<dns::DnsServer> us_dns_;
  net::Ipv4 us_dns_ip_;
  std::unique_ptr<transport::HostStack> scholar_stack_;
  std::unique_ptr<http::WebOrigin> scholar_origin_;
  net::Ipv4 scholar_ip_;
  std::unique_ptr<transport::HostStack> amazon_stack_;
  std::unique_ptr<http::WebOrigin> amazon_origin_;
  net::Ipv4 amazon_ip_;
  std::unique_ptr<transport::HostStack> domestic_site_stack_;
  std::unique_ptr<http::WebOrigin> domestic_origin_;

  // Censorship + regulation.
  std::unique_ptr<gfw::Gfw> gfw_;
  std::unique_ptr<transport::HostStack> probe_stack_;
  regulation::IcpRegistry registry_;
  std::unique_ptr<regulation::TcaAgency> tca_;
  std::unique_ptr<regulation::MpsInvestigation> mps_;

  // VPN servers.
  std::unique_ptr<transport::HostStack> vpn_stack_;
  std::unique_ptr<vpn::PptpServer> pptp_server_;
  std::unique_ptr<vpn::L2tpServer> l2tp_server_;
  std::unique_ptr<transport::HostStack> ovpn_stack_;
  std::unique_ptr<openvpn::CertificateAuthority> ca_;
  Bytes ta_key_;
  std::unique_ptr<openvpn::OpenVpnServer> ovpn_server_;

  // Shadowsocks.
  std::unique_ptr<transport::HostStack> ss_stack_;
  std::unique_ptr<shadowsocks::ShadowsocksRemote> ss_remote_;
  net::Ipv4 ss_remote_ip_;

  // Tor.
  std::unique_ptr<transport::HostStack> dir_stack_;
  std::unique_ptr<tor::DirectoryAuthority> directory_;
  net::Ipv4 directory_ip_;
  struct RelayHost {
    std::unique_ptr<transport::HostStack> stack;
    std::unique_ptr<tor::TorRelay> relay;
  };
  std::vector<RelayHost> relays_;
  std::unique_ptr<transport::HostStack> bridge_stack_;
  std::unique_ptr<tor::TorRelay> bridge_;
  std::unique_ptr<tor::MeekServer> meek_server_;
  net::Ipv4 bridge_ip_;
  std::unique_ptr<transport::HostStack> cdn_stack_;
  std::unique_ptr<tor::FrontedCdn> cdn_;
  net::Ipv4 cdn_ip_;
  std::vector<tor::RelayDescriptor> consensus_;

  // ScholarCloud.
  std::unique_ptr<transport::HostStack> sc_domestic_stack_;
  std::unique_ptr<core::DomesticProxy> domestic_proxy_;
  std::unique_ptr<transport::HostStack> sc_remote_stack_;
  std::unique_ptr<core::RemoteProxy> remote_proxy_;
  std::unique_ptr<core::Deployment> deployment_;

  // Serverless (lazy: built by the first kServerless client; the same
  // ServerlessDeployment the serverless cells build, cell_world.h).
  std::unique_ptr<ServerlessDeployment> serverless_;

  std::vector<std::unique_ptr<Client>> clients_;
  int client_counter_ = 0;
};

}  // namespace sc::measure
