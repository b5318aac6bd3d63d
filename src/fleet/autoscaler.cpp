#include "fleet/autoscaler.h"

namespace sc::fleet {

namespace {
// Leased streams per endpoint above which the fleet grows, below which it
// shrinks.
constexpr double kHighWatermark = 4.0;
constexpr double kLowWatermark = 1.0;
}  // namespace

Autoscaler::Autoscaler(sim::Simulator& sim, AutoscalerOptions options,
                       SizeFn size, ScaleFn scale)
    : sim_(sim),
      options_(options),
      size_(std::move(size)),
      scale_(std::move(scale)) {
  if (options_.min_size < 1) options_.min_size = 1;
  if (options_.max_size < options_.min_size)
    options_.max_size = options_.min_size;
  if (obs::Registry* reg = obs::registryOf(sim_))
    g_load_ = reg->gauge("sc.fleet.active_streams");
}

void Autoscaler::start() {
  timer_.cancel();
  timer_ = sim_.schedule(options_.interval, [this] {
    tick();
    start();
  });
}

void Autoscaler::stop() { timer_.cancel(); }

double Autoscaler::readLoad() const {
  return g_load_ == nullptr ? 0.0 : g_load_->value();
}

void Autoscaler::tick() {
  const int size = size_ == nullptr ? 0 : size_();
  if (size <= 0) return;

  const bool cooling =
      scaled_once_ && sim_.now() - last_scale_at_ < options_.cooldown;
  if (cooling) return;

  const double per_endpoint = readLoad() / static_cast<double>(size);
  if (per_endpoint > kHighWatermark && size < options_.max_size) {
    ++ups_;
    scaled_once_ = true;
    last_scale_at_ = sim_.now();
    scale_(+1);
    return;
  }
  if (per_endpoint < kLowWatermark && size > options_.min_size) {
    ++downs_;
    scaled_once_ = true;
    last_scale_at_ = sim_.now();
    scale_(-1);
  }
}

}  // namespace sc::fleet
