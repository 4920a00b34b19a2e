// Latency SLO tracking with error-budget burn rates.
//
// An objective such as "99% of frames complete within 33 ms" leaves a 1%
// error budget. The burn rate is the ratio of the observed violation
// fraction to that budget: burn 1.0 means the budget is being consumed
// exactly as provisioned, above 1.0 the objective will be missed if the
// trend holds, and well above 1.0 is a page. Burn rate is the standard way
// to make a latency objective actionable without hair-trigger alerts on
// single slow frames.
//
// Trackers self-register in a process-wide list so the ops plane can fold
// every live objective into /healthz as a *degraded-but-200* signal: an SLO
// burning through its budget means the service is failing its quality bar
// while still making progress — deliberately distinct from the heartbeat
// watchdog's 503, which means the service has stopped moving at all.
//
// Each tracker also publishes gauges/counters into the global metrics
// registry (`sslic.slo.<name>.{burn_rate,target_ms,objective}` and
// `.{total,violations}`), so burn rates ride the existing /metrics and
// soak-monitor paths, and retires them on destruction. record() is
// lock-free after construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sslic {
namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry

namespace ops {

class SloTracker {
 public:
  /// `name` scopes the published metrics (`sslic.slo.<name>.*`).
  /// `target_ms` is the per-frame latency objective; `objective` the
  /// required fraction of frames meeting it, clamped to [0.5, 0.9999].
  /// Construction allocates (registry lookups) — create at stream open, not
  /// per frame.
  SloTracker(std::string name, double target_ms, double objective = 0.99);
  ~SloTracker();

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Folds one frame's end-to-end latency into the objective and
  /// republishes the burn-rate gauge. Lock-free, no allocation.
  void record(double latency_ms);

  /// violations/total scaled by the error budget: violation_fraction /
  /// (1 - objective). 0 before any frame.
  [[nodiscard]] double burn_rate() const;

  [[nodiscard]] std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double target_ms() const { return target_ms_; }
  [[nodiscard]] double objective() const { return objective_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  double target_ms_;
  double objective_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> violations_{0};
  telemetry::Counter* total_counter_;
  telemetry::Counter* violation_counter_;
  telemetry::Gauge* burn_gauge_;
};

/// Point-in-time fold of every live tracker, for /healthz.
struct SloSummary {
  std::size_t objectives = 0;  ///< live trackers
  std::size_t burning = 0;     ///< trackers with burn_rate > 1.0
  double max_burn_rate = 0.0;
  std::string worst;           ///< name of the tracker with the max burn rate
};

SloSummary slo_summary();

}  // namespace ops
}  // namespace sslic
