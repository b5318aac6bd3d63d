// OpenVPN-like layer-3 TLS tunnel over UDP 1194 (§4.2 uses the layer-3
// implementation with Easy-RSA PKI).
//
// Wire shape matters for the GFW: the first byte of every datagram is an
// opcode; 0x38 (client hard reset) is the classic OpenVPN fingerprint the
// DPI keys on. Handshake: HARD_RESET exchange, then certificate exchange
// authenticated by the CA, with session keys derived from both nonces and
// the pre-shared tls-auth key. Data packets (0x30) carry the AES-256-CFB
// encrypted serialized inner packet under a per-packet IV.
//
// The client will not even attempt to connect without a complete config
// (remote, CA cert, client cert+key, tls-auth key) — reproducing the
// paper's "extra client software and complicated configurations" finding.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "crypto/aes.h"
#include "openvpn/pki.h"
#include "vpn/tunnel_common.h"

namespace sc::openvpn {

constexpr net::Port kOpenVpnPort = 1194;

// Opcodes (high bits of the real OpenVPN op/keyid byte).
constexpr std::uint8_t kOpHardResetClient = 0x38;
constexpr std::uint8_t kOpHardResetServer = 0x28;
constexpr std::uint8_t kOpControl = 0x20;
constexpr std::uint8_t kOpData = 0x30;
constexpr std::uint8_t kOpPing = 0x08;  // "ping 10" keepalive

struct OpenVpnServerOptions {
  net::Ipv4 inner_base{192, 168, 79, 0};
  net::Ipv4 advertised_dns;
  Bytes tls_auth_key;
};

class OpenVpnServer {
 public:
  OpenVpnServer(transport::HostStack& stack, CertificateAuthority& ca,
                OpenVpnServerOptions options);

  std::size_t activeSessions() const noexcept { return sessions_.size(); }
  std::uint64_t packetsForwarded() const noexcept { return forwarded_; }
  std::uint64_t authFailures() const noexcept { return auth_failures_; }

 private:
  struct Session {
    std::uint32_t id;
    net::Endpoint client;
    net::Ipv4 inner_ip;
    crypto::Aes256 cipher;  // session key, expanded once
    std::uint32_t tx_seq = 0;
  };

  void onDatagram(net::Endpoint from, ByteView data, std::uint32_t tag);

  transport::HostStack& stack_;
  CertificateAuthority& ca_;
  OpenVpnServerOptions options_;
  vpn::VpnNat nat_;
  std::unordered_map<std::uint32_t, Session> sessions_;
  std::unordered_map<std::uint32_t, Bytes> pending_nonces_;  // session -> nonce
  std::uint32_t next_session_ = 0x10;
  std::uint32_t next_inner_ = 2;
  std::uint64_t forwarded_ = 0;
  std::uint64_t auth_failures_ = 0;
};

// The .ovpn profile a user must assemble before connecting.
struct OpenVpnClientConfig {
  net::Endpoint remote;            // "remote <ip> 1194"
  Certificate ca_certificate;     // "ca ca.crt"
  Certificate client_certificate;  // "cert client.crt"
  Bytes client_key;                // "key client.key"
  Bytes tls_auth_key;              // "tls-auth ta.key"
  bool redirect_gateway = true;    // "redirect-gateway def1"

  // Empty string when complete; otherwise the first missing directive.
  std::string validate() const;
};

class OpenVpnClient {
 public:
  OpenVpnClient(transport::HostStack& stack, OpenVpnClientConfig config,
                std::uint32_t measure_tag = 0);
  ~OpenVpnClient();

  using ConnectCb = std::function<void(bool ok, std::string error)>;
  void connect(ConnectCb cb);
  void disconnect();

  bool connected() const noexcept { return tun_ != nullptr; }
  net::Ipv4 innerIp() const;
  net::Ipv4 advertisedDns() const noexcept { return advertised_dns_; }

 private:
  void onDatagram(ByteView data);
  void encapsulate(net::Packet&& inner);
  void sendKeepalive();
  void finish(bool ok, const std::string& error);

  transport::HostStack& stack_;
  OpenVpnClientConfig config_;
  std::uint32_t tag_;
  net::Port local_port_ = 0;
  std::uint32_t session_ = 0;
  Bytes nonce_;
  std::optional<crypto::Aes256> cipher_;  // set by the control reply
  std::uint32_t tx_seq_ = 0;
  net::Ipv4 advertised_dns_;
  std::unique_ptr<vpn::TunDevice> tun_;
  ConnectCb connect_cb_;
  sim::EventHandle timeout_;
  sim::EventHandle keepalive_timer_;
};

}  // namespace sc::openvpn
