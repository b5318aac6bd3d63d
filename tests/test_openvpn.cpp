#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/server.h"
#include "helpers.h"
#include "http/browser.h"
#include "http/origin.h"
#include "openvpn/openvpn.h"

namespace sc::openvpn {
namespace {

using test::MiniWorld;

// ---- PKI ----

TEST(Pki, IssueAndVerify) {
  CertificateAuthority ca("test-ca", toBytes("ca-secret"));
  const KeyPair pair = ca.issue("client-1");
  EXPECT_TRUE(pair.certificate.valid());
  EXPECT_EQ(pair.certificate.issuer, "test-ca");
  EXPECT_TRUE(ca.verify(pair.certificate));
  EXPECT_TRUE(ca.verify(ca.caCertificate()));
}

TEST(Pki, RejectsTamperedCertificate) {
  CertificateAuthority ca("test-ca", toBytes("ca-secret"));
  KeyPair pair = ca.issue("client-1");
  pair.certificate.subject = "client-2";  // forged identity
  EXPECT_FALSE(ca.verify(pair.certificate));
}

TEST(Pki, RejectsForeignCa) {
  CertificateAuthority ca("test-ca", toBytes("ca-secret"));
  CertificateAuthority other("other-ca", toBytes("other-secret"));
  const KeyPair pair = other.issue("client-1");
  EXPECT_FALSE(ca.verify(pair.certificate));
}

TEST(Pki, PemRoundTrips) {
  CertificateAuthority ca("test-ca", toBytes("ca-secret"));
  const KeyPair pair = ca.issue("client-1");
  const std::string pem = pair.certificate.pem();
  EXPECT_NE(pem.find("BEGIN CERTIFICATE"), std::string::npos);
  const auto parsed = Certificate::fromPem(pem);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->subject, "client-1");
  EXPECT_EQ(parsed->serial, pair.certificate.serial);
  EXPECT_TRUE(ca.verify(*parsed));
  EXPECT_FALSE(Certificate::fromPem("garbage").has_value());
}

TEST(Pki, SerialsIncrement) {
  CertificateAuthority ca("test-ca", toBytes("ca-secret"));
  const auto first = ca.issue("a").certificate.serial;
  const auto second = ca.issue("b").certificate.serial;
  EXPECT_LT(first, second);
}

// ---- client config validation (the paper's usability complaint) ----

TEST(ClientConfig, ValidateNamesTheMissingDirective) {
  CertificateAuthority ca("ca", toBytes("s"));
  OpenVpnClientConfig config;
  EXPECT_NE(config.validate().find("remote"), std::string::npos);
  config.remote = net::Endpoint{net::Ipv4(1, 2, 3, 4), kOpenVpnPort};
  EXPECT_NE(config.validate().find("ca"), std::string::npos);
  config.ca_certificate = ca.caCertificate();
  EXPECT_NE(config.validate().find("cert"), std::string::npos);
  const auto pair = ca.issue("c");
  config.client_certificate = pair.certificate;
  EXPECT_NE(config.validate().find("key"), std::string::npos);
  config.client_key = pair.private_key;
  EXPECT_NE(config.validate().find("tls-auth"), std::string::npos);
  config.tls_auth_key = ca.generateTlsAuthKey();
  EXPECT_EQ(config.validate(), "");
}

// ---- tunnel end to end ----

struct OvpnWorld : MiniWorld {
  net::Node& dns_node{world.addUsServer("dns")};
  net::Node& web_node{world.addUsServer("web")};
  transport::HostStack dns_stack{dns_node};
  transport::HostStack web_stack{web_node};
  dns::DnsServer dns_server{dns_stack};
  http::WebOrigin origin{web_stack, http::PageSpec::simpleUsSite("site.test")};
  CertificateAuthority ca{"scholar-vpn-ca", toBytes("ca-secret")};
  Bytes ta_key{ca.generateTlsAuthKey()};
  std::unique_ptr<OpenVpnServer> server_vpn;

  OvpnWorld() {
    dns_server.addRecord("site.test", web_node.primaryIp());
    OpenVpnServerOptions opts;
    opts.advertised_dns = dns_node.primaryIp();
    opts.tls_auth_key = ta_key;
    server_vpn = std::make_unique<OpenVpnServer>(server, ca, opts);
  }

  OpenVpnClientConfig clientConfig() {
    OpenVpnClientConfig config;
    config.remote = net::Endpoint{server_node.primaryIp(), kOpenVpnPort};
    config.ca_certificate = ca.caCertificate();
    const auto pair = ca.issue("thinkpad");
    config.client_certificate = pair.certificate;
    config.client_key = pair.private_key;
    config.tls_auth_key = ta_key;
    return config;
  }
};

TEST(OpenVpn, HandshakeAssignsAddressAndDns) {
  OvpnWorld w;
  OpenVpnClient client(w.client, w.clientConfig());
  bool done = false, ok = false;
  std::string error;
  client.connect([&](bool r, std::string e) {
    done = true;
    ok = r;
    error = e;
  });
  w.runUntilDone([&] { return done; });
  ASSERT_TRUE(ok) << error;
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.advertisedDns(), w.dns_node.primaryIp());
  EXPECT_EQ(w.server_vpn->activeSessions(), 1u);
}

TEST(OpenVpn, IncompleteConfigFailsFastWithDiagnostics) {
  OvpnWorld w;
  OpenVpnClientConfig config = w.clientConfig();
  config.tls_auth_key.clear();
  OpenVpnClient client(w.client, config);
  bool done = false, ok = true;
  std::string error;
  client.connect([&](bool r, std::string e) {
    done = true;
    ok = r;
    error = e;
  });
  w.runUntilDone([&] { return done; });
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("tls-auth"), std::string::npos);
}

TEST(OpenVpn, ServerRejectsUnknownClientCertificate) {
  OvpnWorld w;
  CertificateAuthority rogue("rogue-ca", toBytes("rogue"));
  OpenVpnClientConfig config = w.clientConfig();
  const auto pair = rogue.issue("intruder");
  config.client_certificate = pair.certificate;
  config.client_key = pair.private_key;
  OpenVpnClient client(w.client, config);
  bool done = false, ok = true;
  client.connect([&](bool r, std::string) {
    done = true;
    ok = r;
  });
  w.runUntilDone([&] { return done; }, 2 * sim::kMinute);
  EXPECT_FALSE(ok);  // tls-auth style silent drop -> handshake timeout
  EXPECT_GE(w.server_vpn->authFailures(), 1u);
}

TEST(OpenVpn, FullPageLoadThroughTunnel) {
  OvpnWorld w;
  OpenVpnClient client(w.client, w.clientConfig());
  bool up = false;
  client.connect([&](bool r, std::string) { up = r; });
  w.runUntilDone([&] { return up; });

  http::BrowserOptions bopts;
  bopts.dns_server = client.advertisedDns();
  http::Browser browser(w.client, bopts);
  bool done = false;
  http::PageLoadResult result;
  browser.loadPage("site.test", [&](http::PageLoadResult r) {
    done = true;
    result = r;
  });
  w.runUntilDone([&] { return done; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(w.server_vpn->packetsForwarded(), 10u);
}

TEST(OpenVpn, DataPlaneIsEncryptedOnTheWire) {
  struct Tap : net::PacketFilter {
    Bytes payloads;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      if (pkt.isUdp()) appendBytes(payloads, pkt.payload);
      return Verdict::kPass;
    }
  };
  OvpnWorld w;
  Tap tap;
  w.world.borderLink().addFilter(&tap);
  OpenVpnClient client(w.client, w.clientConfig());
  bool up = false;
  client.connect([&](bool r, std::string) { up = r; });
  w.runUntilDone([&] { return up; });

  http::BrowserOptions bopts;
  bopts.dns_server = client.advertisedDns();
  http::Browser browser(w.client, bopts);
  bool done = false;
  browser.loadPage("site.test", [&](http::PageLoadResult) { done = true; });
  w.runUntilDone([&] { return done; });

  const std::string wire = toString(tap.payloads);
  // The inner HTTP never appears in the clear...
  EXPECT_EQ(wire.find("GET /"), std::string::npos);
  EXPECT_EQ(wire.find("site.test"), std::string::npos);
  // ...but the OpenVPN opcode fingerprint does (how the GFW recognizes it).
  EXPECT_EQ(tap.payloads[0], kOpHardResetClient);
}

// Drops the first border datagram toward the server whose opcode is
// `to_server_op`, and the first toward the client whose opcode is
// `to_client_op`: one lost handshake message in each direction.
struct HandshakeLoss final : net::PacketFilter {
  std::uint8_t to_server_op;
  std::uint8_t to_client_op;
  int dropped = 0;
  bool dropped_to_server = false;
  bool dropped_to_client = false;
  std::vector<Bytes> server_resets;  // every hard-reset reply seen

  HandshakeLoss(std::uint8_t up, std::uint8_t down)
      : to_server_op(up), to_client_op(down) {}

  Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
    if (!pkt.isUdp() || pkt.payload.empty()) return Verdict::kPass;
    const bool to_server = pkt.udp().dst_port == kOpenVpnPort;
    if (!to_server && pkt.payload[0] == kOpHardResetServer)
      server_resets.push_back(pkt.payload);
    bool& done = to_server ? dropped_to_server : dropped_to_client;
    if (done || pkt.payload[0] != (to_server ? to_server_op : to_client_op))
      return Verdict::kPass;
    done = true;
    ++dropped;
    return Verdict::kDrop;
  }
};

// The handshake survives the loss by resending, the server answers each
// resend with the session id and inner address it already assigned, and a
// page then loads through the tunnel, which needs both ends to hold the
// same session key.
void expectHandshakeSurvives(HandshakeLoss loss) {
  OvpnWorld w;
  w.world.borderLink().addFilter(&loss);
  OpenVpnClient client(w.client, w.clientConfig());
  bool done = false, ok = false;
  std::string error;
  sim::Time up_at = 0;
  client.connect([&](bool r, std::string e) {
    done = true;
    ok = r;
    error = std::move(e);
    up_at = w.sim.now();
  });
  w.runUntilDone([&] { return done; });
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(loss.dropped, 2);
  EXPECT_GT(up_at, 2 * sim::kSecond);  // took at least one resend
  EXPECT_LT(up_at, 15 * sim::kSecond);
  EXPECT_EQ(w.server_vpn->activeSessions(), 1u);
  ASSERT_FALSE(loss.server_resets.empty());
  for (const Bytes& reply : loss.server_resets)
    EXPECT_EQ(reply, loss.server_resets.front());
  EXPECT_EQ(client.innerIp(), net::Ipv4(192, 168, 79, 2));
  EXPECT_EQ(client.advertisedDns(), w.dns_node.primaryIp());

  http::BrowserOptions bopts;
  bopts.dns_server = client.advertisedDns();
  http::Browser browser(w.client, bopts);
  bool loaded = false;
  http::PageLoadResult result;
  browser.loadPage("site.test", [&](http::PageLoadResult r) {
    loaded = true;
    result = r;
  });
  w.runUntilDone([&] { return loaded; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(w.server_vpn->packetsForwarded(), 10u);
}

TEST(OpenVpn, HandshakeResendsAfterLostResets) {
  expectHandshakeSurvives({kOpHardResetClient, kOpHardResetServer});
}

TEST(OpenVpn, HandshakeResendsAfterLostControls) {
  expectHandshakeSurvives({kOpControl, kOpControl});
}

}  // namespace
}  // namespace sc::openvpn
