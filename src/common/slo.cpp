#include "common/slo.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/telemetry.h"

namespace sslic::ops {

namespace {

// Live-tracker list for slo_summary(). Guarded by a leaked mutex (trackers
// may be destroyed during process teardown while /healthz still polls).
std::mutex& registry_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<SloTracker*>& registry() {
  static std::vector<SloTracker*>* trackers = new std::vector<SloTracker*>;
  return *trackers;
}

}  // namespace

SloTracker::SloTracker(std::string name, double target_ms, double objective)
    : name_(std::move(name)),
      target_ms_(target_ms),
      objective_(std::clamp(objective, 0.5, 0.9999)) {
  auto& metrics = telemetry::MetricsRegistry::global();
  const std::string prefix = "sslic.slo." + name_;
  total_counter_ = &metrics.counter(prefix + ".total");
  violation_counter_ = &metrics.counter(prefix + ".violations");
  burn_gauge_ = &metrics.gauge(prefix + ".burn_rate");
  metrics.gauge(prefix + ".target_ms").set(target_ms_);
  metrics.gauge(prefix + ".objective").set(objective_);
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().push_back(this);
}

SloTracker::~SloTracker() {
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    auto& trackers = registry();
    trackers.erase(std::remove(trackers.begin(), trackers.end(), this),
                   trackers.end());
  }
  telemetry::MetricsRegistry::global().remove_prefix("sslic.slo." + name_ +
                                                     ".");
}

void SloTracker::record(double latency_ms) {
  total_.fetch_add(1, std::memory_order_relaxed);
  total_counter_->add(1);
  if (latency_ms > target_ms_) {
    violations_.fetch_add(1, std::memory_order_relaxed);
    violation_counter_->add(1);
  }
  burn_gauge_->set(burn_rate());
}

double SloTracker::burn_rate() const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  const double violating =
      static_cast<double>(violations()) / static_cast<double>(n);
  return violating / (1.0 - objective_);
}

SloSummary slo_summary() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  SloSummary summary;
  for (const SloTracker* tracker : registry()) {
    ++summary.objectives;
    const double burn = tracker->burn_rate();
    if (burn > 1.0) ++summary.burning;
    if (burn > summary.max_burn_rate) {
      summary.max_burn_rate = burn;
      summary.worst = tracker->name();
    }
  }
  return summary;
}

}  // namespace sslic::ops
