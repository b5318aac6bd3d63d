#include "measure/testbed.h"

#include "fleet/fleet.h"
#include "measure/cell_world.h"

namespace sc::measure {

namespace {
// Public Tor relays listed in the consensus (all blocked by the GFW).
constexpr int kTorPublicGuards = 2;
constexpr int kTorPublicMiddles = 2;
constexpr int kTorPublicExits = 2;
// The serverless functions' lifetime.
constexpr sim::Time kServerlessTtl = 120 * sim::kSecond;

// ScholarCloud as the paper deployed it (§3): one domestic proxy tunneling
// to one remote proxy, built as a fleet of one endpoint.
constexpr int kScRemotes = 1;
// Eight mux tunnels to the remote: Fig. 7's crowd shares them, so this is
// the service's mux capacity.
constexpr int kScTunnelsPerRemote = 8;
// The campaigns measure what crosses the border; a domestic cache would
// answer Fig. 5's repeat accesses without crossing it.
constexpr bool kScDomesticCache = false;
// Health pings at the paper's access cadence. The prober's default 2 s
// puts thirty pings on the border between two accesses: on traced fig5
// that is 26% more simulator events per access.
constexpr sim::Time kScProbeInterval = 60 * sim::kSecond;
}  // namespace

const char* methodName(Method m) {
  switch (m) {
    case Method::kNativeVpn: return "Native VPN";
    case Method::kOpenVpn: return "OpenVPN";
    case Method::kTor: return "Tor (meek)";
    case Method::kShadowsocks: return "Shadowsocks";
    case Method::kScholarCloud: return "ScholarCloud";
    case Method::kDirect: return "Direct";
    case Method::kUsControl: return "US control";
    case Method::kServerless: return "Serverless";
  }
  return "?";
}

Testbed::Testbed(TestbedOptions options)
    : options_(options), sim_(options.seed), hub_(sim_), network_(sim_) {
  if (options_.tracing) hub_.tracer().enable(options_.trace_capacity);
  if (options_.spans) hub_.spans().enable(options_.span_reserve);
  world_ = std::make_unique<net::World>(network_, options_.world);
  buildOrigins();
  buildGfw();
  buildMethodServers();
  buildTorNetwork();
  buildScholarCloud();
}

Testbed::~Testbed() = default;

void Testbed::buildOrigins() {
  // US resolver: clients reach it across the border, so blocked queries get
  // poisoned in flight (the recursive-path model).
  auto& dns_node = world_->addUsServer("us-dns");
  us_dns_ip_ = dns_node.primaryIp();
  us_dns_stack_ = std::make_unique<transport::HostStack>(dns_node);
  us_dns_ = std::make_unique<dns::DnsServer>(*us_dns_stack_);

  auto& scholar_node = world_->addUsServer("scholar-origin");
  scholar_ip_ = scholar_node.primaryIp();
  scholar_stack_ = std::make_unique<transport::HostStack>(scholar_node, 2.3e9);
  scholar_origin_ = std::make_unique<http::WebOrigin>(
      *scholar_stack_, http::PageSpec::scholarDefault());

  auto& amazon_node = world_->addUsServer("amazon-origin");
  amazon_ip_ = amazon_node.primaryIp();
  amazon_stack_ = std::make_unique<transport::HostStack>(amazon_node, 2.3e9);
  amazon_origin_ = std::make_unique<http::WebOrigin>(
      *amazon_stack_, http::PageSpec::simpleUsSite(kAmazonHost));

  auto& domestic_node = world_->addChinaHost("tsinghua-www");
  domestic_site_stack_ =
      std::make_unique<transport::HostStack>(domestic_node, 2.3e9);
  http::PageSpec domestic_spec = http::PageSpec::simpleUsSite(kDomesticHost);
  domestic_origin_ =
      std::make_unique<http::WebOrigin>(*domestic_site_stack_, domestic_spec);

  us_dns_->addRecord(kScholarHost, scholar_ip_);
  us_dns_->addRecord(kAmazonHost, amazon_node.primaryIp());
  us_dns_->addRecord(kDomesticHost, domestic_node.primaryIp());
}

void Testbed::buildGfw() {
  gfw_ = std::make_unique<gfw::Gfw>(network_, options_.gfw);
  if (!options_.gfw_enabled) {
    auto& cfg = gfw_->config();
    cfg.ip_blocking = false;
    cfg.dns_poisoning = false;
    cfg.keyword_filtering = false;
    cfg.tls_sni_filtering = false;
    cfg.protocol_fingerprinting = false;
    cfg.entropy_classification = false;
    cfg.active_probing = false;
  }
  gfw_->attachTo(world_->borderLink(), net::Direction::kAtoB);

  // What the GFW has blocked for years: everything google.
  gfw_->domains().add("google.com");
  gfw_->ips().add(scholar_ip_);

  // Active-probe vantage point inside China.
  auto& probe_node = world_->addChinaHost("gfw-probe");
  probe_stack_ = std::make_unique<transport::HostStack>(probe_node);
  gfw_->enableActiveProbing(*probe_stack_);

  // Leniency consults the MIIT registry.
  gfw_->setIcpLookup(
      [this](net::Ipv4 ip) { return registry_.isRegistered(ip); });

  tca_ = std::make_unique<regulation::TcaAgency>(sim_, registry_);
  mps_ = std::make_unique<regulation::MpsInvestigation>(sim_, registry_);
  mps_->setShutdownCallback([this](net::Ipv4 server, const std::string&) {
    gfw_->ips().add(server);  // enforcement becomes technical blocking
  });
}

void Testbed::buildMethodServers() {
  // Native VPN server (PPTP + L2TP on one US VM).
  auto& vpn_node = world_->addUsServer("vpn-server");
  vpn_stack_ = std::make_unique<transport::HostStack>(vpn_node, 2.3e9);
  vpn::PptpServerOptions pptp_opts;
  pptp_opts.advertised_dns = us_dns_ip_;
  pptp_server_ = std::make_unique<vpn::PptpServer>(*vpn_stack_, pptp_opts);
  vpn::L2tpServerOptions l2tp_opts;
  l2tp_opts.advertised_dns = us_dns_ip_;
  l2tp_server_ = std::make_unique<vpn::L2tpServer>(*vpn_stack_, l2tp_opts);

  // OpenVPN server + Easy-RSA PKI.
  auto& ovpn_node = world_->addUsServer("openvpn-server");
  ovpn_stack_ = std::make_unique<transport::HostStack>(ovpn_node, 2.3e9);
  ca_ = std::make_unique<openvpn::CertificateAuthority>(
      "scholar-vpn-ca", toBytes("easy-rsa-ca-secret"));
  ta_key_ = ca_->generateTlsAuthKey();
  openvpn::OpenVpnServerOptions ovpn_opts;
  ovpn_opts.advertised_dns = us_dns_ip_;
  ovpn_opts.tls_auth_key = ta_key_;
  ovpn_server_ = std::make_unique<openvpn::OpenVpnServer>(*ovpn_stack_, *ca_,
                                                          ovpn_opts);

  // ss-remote.
  auto& ss_node = world_->addUsServer("ss-remote");
  ss_remote_ip_ = ss_node.primaryIp();
  ss_stack_ = std::make_unique<transport::HostStack>(ss_node, 2.3e9);
  shadowsocks::RemoteOptions ss_opts;
  ss_opts.dns_server = us_dns_ip_;
  ss_remote_ = std::make_unique<shadowsocks::ShadowsocksRemote>(
      *ss_stack_, "correct-horse-battery", ss_opts);
}

void Testbed::buildTorNetwork() {
  auto& dir_node = world_->addUsServer("tor-dirauth");
  directory_ip_ = dir_node.primaryIp();
  dir_stack_ = std::make_unique<transport::HostStack>(dir_node);
  directory_ = std::make_unique<tor::DirectoryAuthority>(*dir_stack_);

  const auto add_relay = [this](const std::string& nick, bool guard,
                                bool exit) {
    RelayHost host;
    auto& node = world_->addRelay(nick);
    host.stack = std::make_unique<transport::HostStack>(node);
    tor::TorRelayOptions opts;
    opts.nickname = nick;
    opts.allow_exit = exit;
    opts.dns_server = us_dns_ip_;
    host.relay = std::make_unique<tor::TorRelay>(*host.stack, opts);
    const auto desc = host.relay->descriptor(guard, exit);
    directory_->publish(desc);
    consensus_.push_back(desc);
    // The GFW harvests the public consensus and blocks every listed relay.
    gfw_->addKnownTorRelay(desc.address);
    relays_.push_back(std::move(host));
  };
  for (int i = 0; i < kTorPublicGuards; ++i)
    add_relay("guard" + std::to_string(i), true, false);
  for (int i = 0; i < kTorPublicMiddles; ++i)
    add_relay("middle" + std::to_string(i), false, false);
  for (int i = 0; i < kTorPublicExits; ++i)
    add_relay("exit" + std::to_string(i), false, true);
  // The directory authority itself is likewise blocked.
  if (options_.gfw_enabled) gfw_->ips().add(directory_ip_);

  // Unlisted bridge + meek reflector.
  auto& bridge_node = world_->addRelay("bridge0");
  bridge_ip_ = bridge_node.primaryIp();
  bridge_stack_ = std::make_unique<transport::HostStack>(bridge_node);
  tor::TorRelayOptions bridge_opts;
  bridge_opts.nickname = "bridge0";
  bridge_opts.allow_exit = false;
  bridge_opts.dns_server = us_dns_ip_;
  bridge_ = std::make_unique<tor::TorRelay>(*bridge_stack_, bridge_opts);
  meek_server_ = std::make_unique<tor::MeekServer>(
      *bridge_stack_, net::Endpoint{bridge_ip_, tor::kOrPort});

  // CDN front.
  auto& cdn_node = world_->addCdnFront("cdn-edge");
  cdn_ip_ = cdn_node.primaryIp();
  cdn_stack_ = std::make_unique<transport::HostStack>(cdn_node, 3.0e9);
  cdn_ = std::make_unique<tor::FrontedCdn>(*cdn_stack_, "cdn.fastly-front.com");
  cdn_->addOrigin("meek.reflect.invalid", net::Endpoint{bridge_ip_, 8443});
  us_dns_->addRecord("cdn.fastly-front.com", cdn_ip_);
}

void Testbed::buildScholarCloud() {
  auto& remote_node = world_->addUsServer("sc-remote");
  sc_remote_stack_ = std::make_unique<transport::HostStack>(remote_node, 2.3e9);

  auto& domestic_node = world_->addCampusServer("sc-domestic");
  sc_domestic_stack_ =
      std::make_unique<transport::HostStack>(domestic_node, 2.3e9);

  const Bytes tunnel_secret = toBytes("scholarcloud-operator-secret");

  core::RemoteProxyOptions remote_opts;
  remote_opts.tunnel_secret = tunnel_secret;
  remote_opts.blinding_mode = options_.blinding_mode;
  remote_opts.dns_server = us_dns_ip_;
  remote_opts.authorized_peers = {domestic_node.primaryIp()};
  remote_proxy_ =
      std::make_unique<core::RemoteProxy>(*sc_remote_stack_, remote_opts);

  core::DomesticProxyOptions dom_opts;
  dom_opts.whitelist = {kScholarHost};
  domestic_proxy_ = std::make_unique<core::DomesticProxy>(*sc_domestic_stack_,
                                                          dom_opts,
                                                          kScTunnelTag);
  deployment_ = std::make_unique<core::Deployment>(*domestic_proxy_);

  fleet::FleetOptions fleet_opts;
  fleet_opts.initial_size = kScRemotes;
  fleet_opts.tunnels_per_endpoint = kScTunnelsPerRemote;
  fleet_opts.tunnel_secret = tunnel_secret;
  fleet_opts.blinding_mode = options_.blinding_mode;
  fleet_opts.enable_cache = kScDomesticCache;
  fleet_opts.health.interval = kScProbeInterval;
  // Every spawn is the one remote: a probe-driven retire and respawn
  // redials it, so a remote blocked and then unblocked recovers.
  const net::Endpoint remote{remote_node.primaryIp(), 443};
  deployment_->spawnFleet<fleet::Fleet>(
      *sc_domestic_stack_, fleet_opts,
      [remote](int) { return fleet::EndpointSpawn{remote, "sc-remote"}; },
      kScTunnelTag);

  if (options_.register_scholarcloud) {
    // The deployed, already-legalized state (ICP Reg. #15063437): approve
    // directly instead of simulating the weeks-long TCA verification.
    const std::string number =
        registry_.approve(deployment_->buildApplication());
    domestic_proxy_->setIcpNumber(number);
  }
}

void Testbed::ensureServerless() {
  if (serverless_ != nullptr) return;
  serverless::ProviderOptions popts;
  popts.prewarm = kServerlessPrewarm;
  popts.ttl = kServerlessTtl;
  serverless_ = std::make_unique<ServerlessDeployment>(
      *world_, *gfw_, us_dns_ip_, popts, options_.blinding_mode);
}

serverless::FunctionProvider* Testbed::serverlessProvider() noexcept {
  return serverless_ != nullptr ? &serverless_->provider : nullptr;
}
fleet::Fleet* Testbed::serverlessFleet() noexcept {
  return serverless_ != nullptr ? &serverless_->fleet : nullptr;
}
serverless::CostModel* Testbed::serverlessCost() noexcept {
  return serverless_ != nullptr ? &serverless_->cost : nullptr;
}

Testbed::Client& Testbed::addClient(Method method, std::uint32_t tag,
                                    std::function<void(bool)> ready) {
  auto client = std::make_unique<Client>();
  Client& c = *client;
  clients_.push_back(std::move(client));
  c.method = method;
  c.tag = tag;
  const std::string name =
      "client-" + std::to_string(client_counter_++) + "-" +
      std::to_string(static_cast<int>(method));
  c.node = method == Method::kUsControl ? &world_->addUsHost(name)
                                        : &world_->addCampusHost(name);
  c.access_link = world_->accessLink(*c.node);
  c.stack = std::make_unique<transport::HostStack>(*c.node, 2.3e9);

  http::BrowserOptions bopts;
  bopts.dns_server = us_dns_ip_;
  bopts.tls_fingerprint =
      method == Method::kTor ? "tor-browser-6.5" : "chrome-56";
  c.browser = std::make_unique<http::Browser>(*c.stack, bopts, tag);

  switch (method) {
    case Method::kDirect:
    case Method::kUsControl:
      sim_.schedule(0, [ready] { ready(true); });
      break;

    case Method::kNativeVpn: {
      c.pptp = std::make_unique<vpn::PptpClient>(
          *c.stack, net::Endpoint{vpn_stack_->ip(), vpn::kPptpControlPort},
          tag);
      auto* pptp = c.pptp.get();
      auto* browser = c.browser.get();
      c.pptp->connect([pptp, browser, ready](bool ok) {
        if (ok) browser->setDnsServer(pptp->advertisedDns());
        ready(ok);
      });
      break;
    }

    case Method::kOpenVpn: {
      // The user assembled a complete .ovpn profile out of band.
      openvpn::OpenVpnClientConfig config;
      config.remote = net::Endpoint{ovpn_stack_->ip(), openvpn::kOpenVpnPort};
      config.ca_certificate = ca_->caCertificate();
      const auto pair = ca_->issue("client-" + std::to_string(tag));
      config.client_certificate = pair.certificate;
      config.client_key = pair.private_key;
      config.tls_auth_key = ta_key_;
      c.ovpn = std::make_unique<openvpn::OpenVpnClient>(*c.stack, config, tag);
      auto* ovpn = c.ovpn.get();
      auto* browser = c.browser.get();
      c.ovpn->connect([ovpn, browser, ready](bool ok, const std::string&) {
        if (ok) browser->setDnsServer(ovpn->advertisedDns());
        ready(ok);
      });
      break;
    }

    case Method::kShadowsocks: {
      shadowsocks::LocalOptions opts;
      opts.remote = net::Endpoint{ss_remote_ip_, shadowsocks::kDefaultDataPort};
      opts.password = "correct-horse-battery";
      opts.keepalive_timeout = options_.ss_keepalive;
      c.ss_local =
          std::make_unique<shadowsocks::ShadowsocksLocal>(*c.stack, opts, tag);
      c.browser->setFixedProxy(
          http::ProxyDecision::socks(c.ss_local->socksEndpoint()));
      sim_.schedule(0, [ready] { ready(true); });
      break;
    }

    case Method::kTor: {
      tor::TorClientOptions opts;
      opts.directory = net::Endpoint{directory_ip_, 80};
      opts.cached_consensus = consensus_;
      opts.meek.cdn = net::Endpoint{cdn_ip_, 443};
      opts.meek.front_domain = "cdn.fastly-front.com";
      opts.meek.bridge_host_header = "meek.reflect.invalid";
      c.tor_client = std::make_unique<tor::TorClient>(*c.stack, opts, tag);
      c.browser->setFixedProxy(
          http::ProxyDecision::socks(c.tor_client->socksEndpoint()));
      // Like the real bundle: bootstrap happens on first use.
      sim_.schedule(0, [ready] { ready(true); });
      break;
    }

    case Method::kScholarCloud: {
      auto* browser = c.browser.get();
      const http::Url pac_url = domestic_proxy_->pacUrl();
      sim_.schedule(0, [browser, pac_url, ready] {
        browser->loadPacFrom(pac_url, [ready](bool ok) { ready(ok); });
      });
      break;
    }

    case Method::kServerless: {
      ensureServerless();
      auto* browser = c.browser.get();
      const http::Url pac_url = serverless_->gateway.pacUrl();
      sim_.schedule(0, [browser, pac_url, ready] {
        browser->loadPacFrom(pac_url, [ready](bool ok) { ready(ok); });
      });
      break;
    }
  }
  return c;
}

void Testbed::retireClient(Client& client) {
  if (client.pptp != nullptr) client.pptp->disconnect();
  if (client.ovpn != nullptr) client.ovpn->disconnect();
  if (client.tor_client != nullptr) client.tor_client->shutdown();
}

}  // namespace sc::measure
