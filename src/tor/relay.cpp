#include "tor/relay.h"

#include <algorithm>
#include <tuple>

#include "crypto/hmac.h"

namespace sc::tor {

HopCrypto HopCrypto::fromKeyMaterial(ByteView key) {
  HopCrypto hc;
  const Bytes k(key.begin(), key.end());
  const crypto::KeyedHmac keys(k);
  const Bytes iv_f = keys.derive("tor-iv-fwd", 16);
  const Bytes iv_b = keys.derive("tor-iv-bwd", 16);
  const crypto::Aes256 cipher(k);
  hc.forward = std::make_unique<crypto::AesCfbStream>(cipher, iv_f);
  hc.backward = std::make_unique<crypto::AesCfbStream>(cipher, iv_b);
  return hc;
}

TorRelay::TorRelay(transport::HostStack& stack, TorRelayOptions options)
    : stack_(stack),
      options_(std::move(options)),
      resolver_(stack, options_.dns_server),
      acceptor_("www." + options_.nickname + ".net", stack.sim()) {
  listener_ = stack_.tcpListen(
      options_.port, [this](transport::TcpSocket::Ptr sock) {
        acceptor_.accept(sock, [this](http::TlsStream::Ptr tls) {
          if (tls != nullptr) acceptLink(tls);
        });
      });
}

RelayDescriptor TorRelay::descriptor(bool guard_flag, bool exit_flag) const {
  RelayDescriptor d;
  d.nickname = options_.nickname;
  d.address = stack_.node().primaryIp();
  d.port = options_.port;
  d.guard = guard_flag;
  d.exit_node = exit_flag && options_.allow_exit;
  return d;
}

void TorRelay::acceptLink(transport::Stream::Ptr stream) {
  auto conn = std::make_shared<Conn>();
  conn->stream = std::move(stream);
  conns_.insert(conn);
  // conns_ and the circuits own each link; its handlers only observe it.
  std::weak_ptr<Conn> weak = conn;
  conn->stream->setOnData([this, weak](ByteView data) {
    const ConnPtr conn = weak.lock();
    if (conn == nullptr) return;
    for (auto& cell : conn->reader.feed(data)) onCell(conn, std::move(cell));
  });
  conn->stream->setOnClose([this, weak] {
    const ConnPtr conn = weak.lock();
    if (conn == nullptr) return;
    // Tear down every circuit referencing this link. The scan order over
    // the hash map is irrelevant: the collected set is sorted by circuit id
    // below, so teardown order (and the trace it produces) is stable.
    std::vector<CircuitPtr> doomed;
    // sclint:allow(det-unordered-iter) collection only; doomed is sorted by circuit id before any side effect
    for (auto& [key, circuit] : circuits_) {
      if (circuit->in_conn == conn || circuit->out_conn == conn)
        doomed.push_back(circuit);
    }
    std::sort(doomed.begin(), doomed.end(),
              [](const CircuitPtr& a, const CircuitPtr& b) {
                return std::tie(a->in_circ, a->out_circ) <
                       std::tie(b->in_circ, b->out_circ);
              });
    for (auto& circuit : doomed)
      destroyCircuit(circuit, circuit->in_conn != conn,
                     circuit->out_conn != nullptr && circuit->out_conn != conn);
    conns_.erase(conn);
  });
}

void TorRelay::sendOnConn(const ConnPtr& conn, const Cell& cell) {
  if (conn != nullptr && conn->stream != nullptr)
    conn->stream->send(encodeCell(cell));
}

void TorRelay::onCell(const ConnPtr& conn, Cell cell) {
  ++cells_;
  const CircuitKey key{conn.get(), cell.circ_id};
  const auto it = circuits_.find(key);

  switch (cell.cmd) {
    case CellCommand::kCreate: {
      if (it != circuits_.end() || cell.payload.size() < 32) return;
      auto circuit = std::make_shared<Circuit>();
      circuit->in_conn = conn;
      circuit->in_circ = cell.circ_id;
      circuit->crypto = HopCrypto::fromKeyMaterial(
          ByteView(cell.payload.data(), 32));
      circuits_[key] = circuit;
      Cell created;
      created.circ_id = cell.circ_id;
      created.cmd = CellCommand::kCreated;
      sendOnConn(conn, created);
      return;
    }
    case CellCommand::kCreated: {
      // Arrives on an outbound link we opened for an EXTEND.
      if (it == circuits_.end()) return;
      const CircuitPtr circuit = it->second;
      RelayPayload extended;
      extended.cmd = RelayCommand::kExtended;
      sendBackward(circuit, extended);
      return;
    }
    case CellCommand::kRelay: {
      if (it == circuits_.end()) return;
      const CircuitPtr circuit = it->second;
      const bool from_inbound = circuit->in_conn == conn;
      if (from_inbound) {
        // Peel one layer and either recognize or forward.
        Bytes& peeled = cell.payload;
        circuit->crypto.forward->decryptInPlace(peeled);
        if (auto relay = decodeRelayPayload(peeled)) {
          handleRecognized(circuit, std::move(*relay));
          return;
        }
        if (circuit->out_conn != nullptr) {
          Cell fwd;
          fwd.circ_id = circuit->out_circ;
          fwd.cmd = CellCommand::kRelay;
          fwd.payload = std::move(peeled);
          sendOnConn(circuit->out_conn, fwd);
        }
        return;
      }
      // Backward traffic: add our layer, send toward the client.
      Cell bwd;
      bwd.circ_id = circuit->in_circ;
      bwd.cmd = CellCommand::kRelay;
      bwd.payload = std::move(cell.payload);
      circuit->crypto.backward->encryptInPlace(bwd.payload);
      sendOnConn(circuit->in_conn, bwd);
      return;
    }
    case CellCommand::kDestroy: {
      if (it == circuits_.end()) return;
      const CircuitPtr circuit = it->second;
      destroyCircuit(circuit, circuit->in_conn != conn,
                     circuit->out_conn != nullptr && circuit->out_conn != conn);
      return;
    }
  }
}

void TorRelay::sendBackward(const CircuitPtr& circuit,
                            const RelayPayload& relay) {
  Cell cell;
  cell.circ_id = circuit->in_circ;
  cell.cmd = CellCommand::kRelay;
  cell.payload = encodeRelayPayload(relay);
  circuit->crypto.backward->encryptInPlace(cell.payload);
  sendOnConn(circuit->in_conn, cell);
}

void TorRelay::handleRecognized(const CircuitPtr& circuit,
                                RelayPayload relay) {
  switch (relay.cmd) {
    case RelayCommand::kExtend:
      handleExtend(circuit, relay);
      return;
    case RelayCommand::kBegin:
      handleBegin(circuit, relay);
      return;
    case RelayCommand::kData: {
      const auto it = circuit->exit_streams.find(relay.stream_id);
      if (it != circuit->exit_streams.end()) it->second->send(relay.data);
      return;
    }
    case RelayCommand::kEnd: {
      const auto it = circuit->exit_streams.find(relay.stream_id);
      if (it != circuit->exit_streams.end()) {
        it->second->close();
        circuit->exit_streams.erase(it);
      }
      return;
    }
    default:
      return;
  }
}

void TorRelay::handleExtend(const CircuitPtr& circuit,
                            const RelayPayload& relay) {
  std::size_t off = 0;
  std::uint32_t next_ip = 0;
  std::uint16_t next_port = 0;
  Bytes key;
  if (!readU32(relay.data, off, next_ip) ||
      !readU16(relay.data, off, next_port) ||
      !readBytes(relay.data, off, 32, key))
    return;

  const std::uint32_t out_circ = next_out_circ_++;
  // Open a TLS link to the next onion router.
  stack_.tcpConnect(
      net::Endpoint{net::Ipv4(next_ip), next_port},
      [this, circuit, out_circ, key](transport::TcpSocket::Ptr sock) {
        if (sock == nullptr) {
          destroyCircuit(circuit, /*notify_in=*/true, /*notify_out=*/false);
          return;
        }
        http::TlsClientOptions opts;
        opts.sni = "www." + options_.nickname + "-link.net";
        opts.fingerprint = "tor-relay-link";
        http::TlsStream::clientHandshake(
            std::move(sock), stack_.sim(), opts, nullptr,
            [this, circuit, out_circ, key](http::TlsStream::Ptr tls) {
              if (tls == nullptr) {
                destroyCircuit(circuit, true, false);
                return;
              }
              auto conn = std::make_shared<Conn>();
              conn->stream = tls;
              conns_.insert(conn);
              std::weak_ptr<Conn> weak = conn;
              conn->stream->setOnData([this, weak](ByteView data) {
                const ConnPtr conn = weak.lock();
                if (conn == nullptr) return;
                for (auto& cell : conn->reader.feed(data))
                  onCell(conn, std::move(cell));
              });
              conn->stream->setOnClose([this, weak] {
                if (const ConnPtr conn = weak.lock()) conns_.erase(conn);
              });
              circuit->out_conn = conn;
              circuit->out_circ = out_circ;
              circuits_[CircuitKey{conn.get(), out_circ}] = circuit;
              Cell create;
              create.circ_id = out_circ;
              create.cmd = CellCommand::kCreate;
              create.payload = key;
              sendOnConn(conn, create);
            });
      });
}

void TorRelay::handleBegin(const CircuitPtr& circuit,
                           const RelayPayload& relay) {
  if (!options_.allow_exit) {
    RelayPayload end;
    end.cmd = RelayCommand::kEnd;
    end.stream_id = relay.stream_id;
    sendBackward(circuit, end);
    return;
  }
  // Target: atyp | (ip | len host) | port — same encoding as SOCKS.
  std::size_t off = 0;
  std::uint8_t atyp = 0;
  if (!readU8(relay.data, off, atyp)) return;
  std::string host;
  net::Ipv4 ip;
  if (atyp == 0x01) {
    std::uint32_t raw = 0;
    if (!readU32(relay.data, off, raw)) return;
    ip = net::Ipv4(raw);
  } else if (atyp == 0x03) {
    std::uint8_t len = 0;
    Bytes raw;
    if (!readU8(relay.data, off, len) || !readBytes(relay.data, off, len, raw))
      return;
    host = toString(raw);
  } else {
    return;
  }
  std::uint16_t port = 0;
  if (!readU16(relay.data, off, port)) return;

  const std::uint16_t stream_id = relay.stream_id;
  auto attach = [this, circuit, stream_id](transport::Stream::Ptr upstream) {
    if (upstream == nullptr) {
      RelayPayload end;
      end.cmd = RelayCommand::kEnd;
      end.stream_id = stream_id;
      sendBackward(circuit, end);
      return;
    }
    ++exited_;
    circuit->exit_streams[stream_id] = upstream;
    upstream->setOnData([this, circuit, stream_id](ByteView data) {
      std::size_t off2 = 0;
      while (off2 < data.size()) {
        const std::size_t n = std::min(kRelayDataMax, data.size() - off2);
        RelayPayload chunk;
        chunk.cmd = RelayCommand::kData;
        chunk.stream_id = stream_id;
        chunk.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off2),
                          data.begin() + static_cast<std::ptrdiff_t>(off2 + n));
        sendBackward(circuit, chunk);
        off2 += n;
      }
    });
    upstream->setOnClose([this, circuit, stream_id] {
      circuit->exit_streams.erase(stream_id);
      RelayPayload end;
      end.cmd = RelayCommand::kEnd;
      end.stream_id = stream_id;
      sendBackward(circuit, end);
    });
    RelayPayload connected;
    connected.cmd = RelayCommand::kConnected;
    connected.stream_id = stream_id;
    sendBackward(circuit, connected);
  };

  if (!host.empty()) {
    resolver_.resolve(host, [this, attach, port](std::optional<net::Ipv4> a) {
      if (!a.has_value()) {
        attach(nullptr);
        return;
      }
      stack_.directConnector()->connect(
          transport::ConnectTarget::byAddress({*a, port}), attach);
    });
  } else {
    stack_.directConnector()->connect(
        transport::ConnectTarget::byAddress({ip, port}), attach);
  }
}

void TorRelay::destroyCircuit(const CircuitPtr& circuit, bool notify_in,
                              bool notify_out) {
  if (notify_in && circuit->in_conn != nullptr) {
    Cell destroy;
    destroy.circ_id = circuit->in_circ;
    destroy.cmd = CellCommand::kDestroy;
    sendOnConn(circuit->in_conn, destroy);
  }
  if (notify_out && circuit->out_conn != nullptr) {
    Cell destroy;
    destroy.circ_id = circuit->out_circ;
    destroy.cmd = CellCommand::kDestroy;
    sendOnConn(circuit->out_conn, destroy);
  }
  for (auto& [id, stream] : circuit->exit_streams) {
    stream->setOnData(nullptr);
    stream->setOnClose(nullptr);
    stream->close();
  }
  circuit->exit_streams.clear();
  std::erase_if(circuits_, [&](const auto& kv) { return kv.second == circuit; });
}

}  // namespace sc::tor
