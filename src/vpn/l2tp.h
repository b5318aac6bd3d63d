// Native VPN, L2TP/IPsec flavour (the xl2tpd/openswan alternative the paper
// also tested and found "similar performance to PPTP").
//
// Control channel: a small UDP/1701 exchange standing in for the L2TP tunnel
// + session establishment and the IKE negotiation of a pre-shared key. Data
// plane: ESP packets whose payload is the AES-256-CFB-encrypted serialized
// inner packet — unlike PPTP, the inner bytes are opaque to DPI, but the ESP
// protocol number itself is the fingerprint the GFW recognizes (and, post
// 2015, tolerates).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/aes.h"
#include "vpn/tunnel_common.h"

namespace sc::vpn {

constexpr net::Port kL2tpControlPort = 1701;

struct L2tpServerOptions {
  net::Ipv4 inner_base{192, 168, 78, 0};
  net::Ipv4 advertised_dns;
  Bytes pre_shared_key = toBytes("l2tp-ipsec-psk");
};

class L2tpServer {
 public:
  L2tpServer(transport::HostStack& stack, L2tpServerOptions options);

  std::size_t activeSessions() const noexcept { return sessions_.size(); }
  std::uint64_t packetsForwarded() const noexcept { return forwarded_; }

 private:
  struct Session {
    std::uint32_t spi;
    net::Ipv4 client_outer;
    net::Ipv4 inner_ip;
    crypto::Aes256 cipher;  // session key, expanded once
  };

  void onControl(net::Endpoint from, ByteView data, std::uint32_t tag);
  void onEsp(net::Packet&& pkt);

  transport::HostStack& stack_;
  L2tpServerOptions options_;
  VpnNat nat_;
  std::unordered_map<std::uint32_t, Session> sessions_;  // by SPI
  std::uint32_t next_spi_ = 0x1000;
  std::uint32_t next_inner_ = 2;
  std::uint32_t tx_seq_ = 0;
  std::uint64_t forwarded_ = 0;
};

class L2tpClient {
 public:
  L2tpClient(transport::HostStack& stack, net::Endpoint server,
             Bytes pre_shared_key = toBytes("l2tp-ipsec-psk"),
             std::uint32_t measure_tag = 0);
  ~L2tpClient();

  using ConnectCb = std::function<void(bool ok)>;
  void connect(ConnectCb cb);
  void disconnect();

  bool connected() const noexcept { return tun_ != nullptr; }
  net::Ipv4 innerIp() const;
  net::Ipv4 advertisedDns() const noexcept { return advertised_dns_; }

 private:
  void encapsulate(net::Packet&& inner);
  void onEsp(net::Packet&& pkt);
  void sendKeepalive();

  transport::HostStack& stack_;
  net::Endpoint server_;
  Bytes psk_;
  std::uint32_t tag_;
  net::Port control_port_ = 0;
  std::uint32_t spi_ = 0;
  std::uint32_t esp_seq_ = 0;
  net::Ipv4 advertised_dns_;
  std::optional<crypto::Aes256> cipher_;  // set by the IKE reply
  std::unique_ptr<TunDevice> tun_;
  ConnectCb connect_cb_;
  sim::EventHandle timeout_;
  sim::EventHandle keepalive_timer_;
};

}  // namespace sc::vpn
