#include "tor/client.h"

#include "obs/hub.h"

namespace sc::tor {

// App stream: the client end of a RELAY_BEGIN stream.
class TorClient::AppStream final
    : public transport::Stream,
      public std::enable_shared_from_this<TorClient::AppStream> {
 public:
  AppStream(TorClient& client, std::uint16_t id) : client_(client), id_(id) {}

  void send(Bytes data) override {
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min(kRelayDataMax, data.size() - off);
      RelayPayload chunk;
      chunk.cmd = RelayCommand::kData;
      chunk.stream_id = id_;
      chunk.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                        data.begin() + static_cast<std::ptrdiff_t>(off + n));
      client_.sendRelay(chunk);
      off += n;
    }
  }

  void close() override {
    if (!open_) return;
    open_ = false;
    RelayPayload end;
    end.cmd = RelayCommand::kEnd;
    end.stream_id = id_;
    client_.sendRelay(end);
    client_.streams_.erase(id_);
  }

  bool connected() const override { return open_; }

  void deliver(ByteView data) { emitData(data); }
  void remoteEnd() {
    open_ = false;
    emitClose();
  }

 private:
  TorClient& client_;
  std::uint16_t id_;
  bool open_ = true;
};

TorClient::TorClient(transport::HostStack& stack, TorClientOptions options,
                     std::uint32_t measure_tag)
    : stack_(stack), options_(std::move(options)), tag_(measure_tag) {
  socks_ = std::make_unique<http::SocksServer>(
      [this](transport::ConnectTarget target, transport::Stream::Ptr client,
             std::function<void(bool)> respond) {
        onSocksRequest(std::move(target), std::move(client),
                       std::move(respond));
      });
  socks_listener_ =
      stack_.tcpListen(options_.socks_port,
                       [this](transport::TcpSocket::Ptr sock) {
                         socks_->accept(std::move(sock));
                       });
}

// ------------------------------------------------------------------ bootstrap

void TorClient::bootstrap(std::function<void(bool)> cb) {
  waiting_.push_back(std::move(cb));
  if (state_ == State::kBootstrapping) return;
  if (state_ == State::kReady) {
    bootstrapDone(true);
    return;
  }
  state_ = State::kBootstrapping;
  bootstrap_started_ = stack_.sim().now();
  if (auto* sp = obs::spansOf(stack_.sim()))
    bootstrap_span_ = sp->begin(obs::SpanKind::kTunnelHandshake, tag_, "tor");

  fetchConsensus([this](std::vector<RelayDescriptor> relays) {
    consensus_ = std::move(relays);
    if (consensus_.empty()) {
      bootstrapDone(false);
      return;
    }
    if (options_.try_direct_guard) {
      tryDirectGuard([this](transport::Stream::Ptr link) {
        if (link != nullptr) {
          used_meek_ = false;
          buildCircuit(std::move(link));
          return;
        }
        openMeekLink([this](transport::Stream::Ptr meek_link) {
          if (meek_link == nullptr) {
            bootstrapDone(false);
            return;
          }
          used_meek_ = true;
          buildCircuit(std::move(meek_link));
        });
      });
    } else {
      openMeekLink([this](transport::Stream::Ptr meek_link) {
        if (meek_link == nullptr) {
          bootstrapDone(false);
          return;
        }
        used_meek_ = true;
        buildCircuit(std::move(meek_link));
      });
    }
  });
}

void TorClient::fetchConsensus(
    std::function<void(std::vector<RelayDescriptor>)> cb) {
  auto done = std::make_shared<bool>(false);
  auto cb_shared =
      std::make_shared<std::function<void(std::vector<RelayDescriptor>)>>(
          std::move(cb));
  const auto fallback = [this, done, cb_shared] {
    if (*done) return;
    *done = true;
    (*cb_shared)(options_.cached_consensus);  // stale-but-cached consensus
  };
  stack_.sim().schedule(options_.dir_timeout, fallback);

  stack_.directConnector(tag_)->connect(
      transport::ConnectTarget::byAddress(options_.directory),
      [this, done, cb_shared, fallback](transport::Stream::Ptr stream) {
        if (*done) {
          if (stream != nullptr) stream->close();
          return;
        }
        if (stream == nullptr) return;  // fallback timer will fire
        http::Request req;
        req.method = "GET";
        req.target = "/tor/status";
        req.headers.set("host", "dirauth.torproject.net");
        http::HttpClient::fetchOn(
            stream, stack_.sim(), req, options_.dir_timeout,
            [done, cb_shared, fallback, stream](
                std::optional<http::Response> resp) {
              stream->close();
              if (*done) return;
              if (!resp.has_value() || resp->status != 200) return;
              const auto relays = parseConsensus(toString(resp->body));
              if (!relays.has_value()) return;
              *done = true;
              (*cb_shared)(*relays);
            });
      });
}

void TorClient::tryDirectGuard(
    std::function<void(transport::Stream::Ptr)> cb) {
  // Pick a public guard from the consensus.
  std::vector<const RelayDescriptor*> guards;
  for (const auto& r : consensus_)
    if (r.guard) guards.push_back(&r);
  if (guards.empty()) {
    cb(nullptr);
    return;
  }
  const auto& guard = *guards[stack_.sim().rng().uniformU64(guards.size())];

  auto done = std::make_shared<bool>(false);
  auto cb_shared =
      std::make_shared<std::function<void(transport::Stream::Ptr)>>(
          std::move(cb));
  auto sock = stack_.tcpConnect(
      net::Endpoint{guard.address, guard.port},
      [this, done, cb_shared](transport::TcpSocket::Ptr raw) {
        if (*done) return;
        if (raw == nullptr) {
          *done = true;
          (*cb_shared)(nullptr);
          return;
        }
        http::TlsClientOptions tls;
        tls.sni = "www.github-mirror.net";  // Tor's camouflage SNI
        tls.fingerprint = options_.link_fingerprint;
        http::TlsStream::clientHandshake(
            std::move(raw), stack_.sim(), tls, nullptr,
            [done, cb_shared](http::TlsStream::Ptr link) {
              if (*done) {
                if (link != nullptr) link->close();
                return;
              }
              *done = true;
              (*cb_shared)(std::move(link));
            });
      },
      tag_);
  // The guard timeout keeps the socket until it fires, to give up on the SYN.
  stack_.sim().schedule(options_.guard_timeout, [done, cb_shared, sock] {
    if (*done) return;
    *done = true;
    sock->abort();
    (*cb_shared)(nullptr);
  });
}

void TorClient::openMeekLink(
    std::function<void(transport::Stream::Ptr)> cb) {
  if (!options_.use_meek_bridge) {
    cb(nullptr);
    return;
  }
  cb(MeekClient::open(stack_, options_.meek, tag_));
}

void TorClient::buildCircuit(transport::Stream::Ptr link) {
  link_ = std::move(link);
  auto weak_alive = std::make_shared<bool>(true);  // tied to this client
  link_->setOnData([this](ByteView data) { onLinkData(data); });
  link_->setOnClose([this] {
    teardownCircuit();
    if (state_ == State::kBootstrapping) bootstrapDone(false);
  });

  circ_id_ = static_cast<std::uint32_t>(stack_.sim().rng().nextU64() | 1u) &
             0x7FFFFFFF;
  hops_.clear();
  hop_keys_.clear();
  hops_built_ = 0;

  // Plan: entry hop is whoever the link reaches (guard or bridge); then a
  // middle and an exit from the consensus.
  circuit_plan_.clear();
  const RelayDescriptor* middle = nullptr;
  const RelayDescriptor* exit = nullptr;
  for (const auto& r : consensus_) {
    if (r.exit_node && exit == nullptr) exit = &r;
    else if (!r.guard && !r.exit_node && middle == nullptr) middle = &r;
  }
  if (middle == nullptr || exit == nullptr) {
    bootstrapDone(false);
    return;
  }
  circuit_plan_ = {*middle, *exit};

  // Entry hop: CREATE straight down the link.
  Bytes key = stack_.sim().rng().randomBytes(32);
  hop_keys_.push_back(key);
  Cell create;
  create.circ_id = circ_id_;
  create.cmd = CellCommand::kCreate;
  create.payload = key;
  link_->send(encodeCell(create));
}

void TorClient::extendNext() {
  const std::size_t next = hops_built_ - 1;  // index into circuit_plan_
  if (next >= circuit_plan_.size()) {
    // Circuit complete.
    ++circuits_built_;
    state_ = State::kReady;
    bootstrap_time_ = stack_.sim().now() - bootstrap_started_;
    bootstrapDone(true);
    return;
  }
  const RelayDescriptor& hop = circuit_plan_[next];
  Bytes key = stack_.sim().rng().randomBytes(32);
  hop_keys_.push_back(key);

  RelayPayload extend;
  extend.cmd = RelayCommand::kExtend;
  appendU32(extend.data, hop.address.v);
  appendU16(extend.data, hop.port);
  appendBytes(extend.data, key);
  sendRelay(extend);
}

void TorClient::bootstrapDone(bool ok) {
  if (bootstrap_span_ != 0) {
    if (auto* sp = obs::spansOf(stack_.sim())) {
      if (ok) sp->setWhat(bootstrap_span_, used_meek_ ? "tor-meek" : "tor");
      sp->end(bootstrap_span_,
              ok ? obs::SpanStatus::kOk : obs::SpanStatus::kError,
              static_cast<std::int64_t>(circuits_built_));
    }
    bootstrap_span_ = 0;
  }
  if (!ok) state_ = State::kIdle;
  auto waiters = std::move(waiting_);
  waiting_.clear();
  for (auto& cb : waiters) cb(ok);
}

// --------------------------------------------------------------------- cells

void TorClient::sendRelay(const RelayPayload& relay) {
  if (link_ == nullptr || hops_.empty()) return;
  Bytes payload = encodeRelayPayload(relay);
  for (std::size_t i = hops_.size(); i-- > 0;)
    payload = hops_[i].forward->encrypt(payload);
  Cell cell;
  cell.circ_id = circ_id_;
  cell.cmd = CellCommand::kRelay;
  cell.payload = std::move(payload);
  link_->send(encodeCell(cell));
}

void TorClient::onLinkData(ByteView data) {
  for (auto& cell : reader_.feed(data)) onCell(std::move(cell));
}

void TorClient::onCell(Cell cell) {
  if (cell.circ_id != circ_id_) return;
  switch (cell.cmd) {
    case CellCommand::kCreated: {
      if (hop_keys_.size() != hops_built_ + 1) return;
      hops_.push_back(HopCrypto::fromKeyMaterial(hop_keys_[hops_built_]));
      ++hops_built_;
      extendNext();
      return;
    }
    case CellCommand::kRelay: {
      Bytes payload = std::move(cell.payload);
      for (std::size_t i = 0; i < hops_.size(); ++i) {
        payload = hops_[i].backward->decrypt(payload);
        if (auto relay = decodeRelayPayload(payload)) {
          onRecognized(std::move(*relay));
          return;
        }
      }
      return;  // unrecognized: corrupted or stray
    }
    case CellCommand::kDestroy:
      teardownCircuit();
      return;
    default:
      return;
  }
}

void TorClient::onRecognized(RelayPayload relay) {
  switch (relay.cmd) {
    case RelayCommand::kExtended: {
      if (hop_keys_.size() != hops_built_ + 1) return;
      hops_.push_back(HopCrypto::fromKeyMaterial(hop_keys_[hops_built_]));
      ++hops_built_;
      extendNext();
      return;
    }
    case RelayCommand::kConnected: {
      const auto it = pending_begin_.find(relay.stream_id);
      if (it != pending_begin_.end()) {
        auto cb = std::move(it->second);
        pending_begin_.erase(it);
        cb(true);
      }
      return;
    }
    case RelayCommand::kData: {
      const auto it = streams_.find(relay.stream_id);
      if (it != streams_.end()) it->second->deliver(relay.data);
      return;
    }
    case RelayCommand::kEnd: {
      const auto pb = pending_begin_.find(relay.stream_id);
      if (pb != pending_begin_.end()) {
        auto cb = std::move(pb->second);
        pending_begin_.erase(pb);
        cb(false);
        return;
      }
      const auto it = streams_.find(relay.stream_id);
      if (it != streams_.end()) {
        auto stream = it->second;
        streams_.erase(it);
        stream->remoteEnd();
      }
      return;
    }
    default:
      return;
  }
}

void TorClient::teardownCircuit() {
  if (link_ != nullptr) {
    link_->setOnData(nullptr);
    link_->setOnClose(nullptr);
    link_->close();
    link_ = nullptr;
  }
  hops_.clear();
  hop_keys_.clear();
  hops_built_ = 0;
  for (auto& [id, cb] : pending_begin_) cb(false);
  pending_begin_.clear();
  auto streams = std::move(streams_);
  streams_.clear();
  for (auto& [id, stream] : streams) stream->remoteEnd();
  if (state_ == State::kReady) state_ = State::kIdle;
}

// --------------------------------------------------------------------- socks

void TorClient::onSocksRequest(transport::ConnectTarget target,
                               transport::Stream::Ptr client,
                               std::function<void(bool)> respond) {
  if (state_ == State::kReady) {
    openAppStream(target, std::move(client), std::move(respond));
    return;
  }
  bootstrap([this, target = std::move(target), client = std::move(client),
             respond = std::move(respond)](bool ok) mutable {
    if (!ok) {
      respond(false);
      return;
    }
    openAppStream(target, std::move(client), std::move(respond));
  });
}

void TorClient::openAppStream(const transport::ConnectTarget& target,
                              transport::Stream::Ptr socks_client,
                              std::function<void(bool)> respond) {
  const std::uint16_t id = next_stream_id_++;
  auto stream = std::make_shared<AppStream>(*this, id);
  streams_[id] = stream;

  RelayPayload begin;
  begin.cmd = RelayCommand::kBegin;
  begin.stream_id = id;
  if (target.byName()) {
    appendU8(begin.data, 0x03);
    appendU8(begin.data, static_cast<std::uint8_t>(target.host.size()));
    appendBytes(begin.data, toBytes(target.host));
  } else {
    appendU8(begin.data, 0x01);
    appendU32(begin.data, target.ip.v);
  }
  appendU16(begin.data, target.port);

  pending_begin_[id] = [this, id, stream, socks_client,
                        respond = std::move(respond)](bool ok) {
    respond(ok);
    if (!ok) {
      streams_.erase(id);
      socks_client->close();
      return;
    }
    transport::bridgeStreams(socks_client, stream);
  };
  sendRelay(begin);
}

}  // namespace sc::tor
