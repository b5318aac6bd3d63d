#include "http/client.h"

namespace sc::http {

namespace {
class FetchOp : public std::enable_shared_from_this<FetchOp> {
 public:
  FetchOp(transport::Stream::Ptr stream, sim::Simulator& sim,
          HttpClient::FetchCb cb)
      : stream_(std::move(stream)), sim_(sim), cb_(std::move(cb)) {}

  // The timeout event owns the fetch; the stream's handlers only observe it,
  // so a stream never keeps the fetch it serves alive.
  void start(Request req, sim::Time timeout) {
    std::weak_ptr<FetchOp> weak = weak_from_this();
    stream_->setOnData([weak](ByteView data) {
      if (auto self = weak.lock()) self->onData(data);
    });
    stream_->setOnClose([weak] {
      if (auto self = weak.lock()) self->finish(std::nullopt);
    });
    timer_ = sim_.schedule(timeout, [self = shared_from_this()] {
      self->finish(std::nullopt);
    });
    stream_->send(req.serialize());
  }

 private:
  void onData(ByteView data) {
    auto responses = parser_.feed(data);
    if (parser_.malformed()) {
      finish(std::nullopt);
      return;
    }
    if (!responses.empty()) finish(std::move(responses.front()));
  }

  void finish(std::optional<Response> resp) {
    if (done_) return;
    done_ = true;
    timer_.cancel();
    if (stream_ != nullptr) {
      stream_->setOnData(nullptr);
      stream_->setOnClose(nullptr);
    }
    if (!resp.has_value() && stream_ != nullptr) stream_->close();
    auto cb = std::move(cb_);
    stream_ = nullptr;
    cb(std::move(resp));
  }

  transport::Stream::Ptr stream_;
  sim::Simulator& sim_;
  HttpClient::FetchCb cb_;
  ResponseParser parser_;
  sim::EventHandle timer_;
  bool done_ = false;
};
}  // namespace

void HttpClient::fetchOn(transport::Stream::Ptr stream, sim::Simulator& sim,
                         Request req, sim::Time timeout, FetchCb cb) {
  if (stream == nullptr) {
    cb(std::nullopt);
    return;
  }
  auto op = std::make_shared<FetchOp>(std::move(stream), sim, std::move(cb));
  op->start(std::move(req), timeout);
}

}  // namespace sc::http
