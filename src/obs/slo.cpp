#include "obs/slo.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/tracer.h"

namespace sc::obs {

namespace {
constexpr double kAvailabilityTarget = 0.99;
// Share of accesses that must finish under kLatencyTarget.
constexpr double kLatencyObjective = 0.99;
constexpr sim::Time kLatencyTarget = 8 * sim::kSecond;  // per-access PLT
// The long window proves a burn is sustained.
constexpr sim::Time kLongWindow = sim::kHour;
constexpr double kPageBurn = 14.0;
constexpr double kTicketBurn = 6.0;
}  // namespace

SloEngine::SloEngine(SloConfig config) : config_(config) {}

void SloEngine::bind(Registry* registry, Tracer* tracer) {
  tracer_ = tracer;
  if (registry != nullptr) {
    c_samples_ = registry->counter("sc.slo.samples");
    c_errors_ = registry->counter("sc.slo.errors");
    c_pages_ = registry->counter("sc.slo.alerts_page");
    c_tickets_ = registry->counter("sc.slo.alerts_ticket");
    c_clears_ = registry->counter("sc.slo.alerts_clear");
  }
}

void SloEngine::sample(sim::Time at, bool ok, sim::Time latency) {
  now_ = std::max(now_, at);
  samples_.push_back(Sample{at, latency, ok});
  ++samples_seen_;
  if (c_samples_ != nullptr) c_samples_->inc();
  if (!ok && c_errors_ != nullptr) c_errors_->inc();
  while (!samples_.empty() && samples_.front().at + kLongWindow < now_)
    samples_.pop_front();

  const WindowStats long_w = window(kLongWindow);
  if (long_w.samples < config_.min_samples) return;
  const WindowStats short_w = window(kSloShortWindow);
  evaluate(availability_, short_w.availability_burn, long_w.availability_burn);
  evaluate(latency_, short_w.latency_burn, long_w.latency_burn);
}

SloEngine::WindowStats SloEngine::window(sim::Time width) const {
  WindowStats out;
  std::vector<sim::Time> latencies;
  for (const Sample& s : samples_) {
    if (s.at + width < now_) continue;
    ++out.samples;
    if (!s.ok) {
      ++out.errors;
    } else {
      if (s.latency > kLatencyTarget) ++out.slow;
      latencies.push_back(s.latency);
    }
  }
  if (out.samples == 0) return out;
  const double n = static_cast<double>(out.samples);
  out.availability = 1.0 - static_cast<double>(out.errors) / n;
  const double avail_budget = 1.0 - kAvailabilityTarget;
  const double lat_budget = 1.0 - kLatencyObjective;
  out.availability_burn = (static_cast<double>(out.errors) / n) / avail_budget;
  // A failed access spends latency budget too (it never finished in time).
  out.latency_burn =
      (static_cast<double>(out.slow + out.errors) / n) / lat_budget;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const std::size_t rank =
        (latencies.size() * 99 + 99) / 100;  // nearest-rank, 1-based
    out.latency_p99 = latencies[std::min(rank, latencies.size()) - 1];
  }
  return out;
}

void SloEngine::evaluate(Objective& objective, double short_burn,
                         double long_burn) {
  const bool page = short_burn > kPageBurn && long_burn > kPageBurn;
  const bool ticket = short_burn > kTicketBurn && long_burn > kTicketBurn;
  if (page && objective.level < 2) {
    objective.level = 2;
    ++alerts_fired_;
    if (c_pages_ != nullptr) c_pages_->inc();
    emitAlert(objective, "page", long_burn);
  } else if (ticket && objective.level < 1) {
    objective.level = 1;
    ++alerts_fired_;
    if (c_tickets_ != nullptr) c_tickets_->inc();
    emitAlert(objective, "ticket", long_burn);
  } else if (!ticket && objective.level > 0) {
    objective.level = 0;
    if (c_clears_ != nullptr) c_clears_->inc();
    emitAlert(objective, "clear", long_burn);
  }
}

void SloEngine::emitAlert(const Objective& objective, const char* what,
                          double long_burn) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  Event ev;
  ev.at = now_;
  ev.type = EventType::kSloAlert;
  ev.what = what;
  ev.detail = objective.name;
  ev.a = static_cast<std::int64_t>(long_burn * 1000.0);
  tracer_->record(std::move(ev));
}

}  // namespace sc::obs
