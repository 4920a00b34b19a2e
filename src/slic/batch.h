// Batched multi-frame segmentation — the seam for the multi-stream
// service (ROADMAP item 1): N independent frames segmented as one job.
//
// A single-frame call pays per-frame overheads that a batch can amortize:
// one thread-pool drain per parallel region (several regions per frame),
// kernel-table resolution, trace-span and telemetry arming, and
// cold working buffers. BatchSegmenter instead dispatches *frames* across
// the pool — one run_chunks drain per batch — and runs each frame's inner
// segmenter serially (nested parallel regions fall back to serial via
// ThreadPool::in_parallel_region()). Each frame therefore takes the serial
// code path, which is bit-identical to every parallel path by the
// determinism contract, so batch results are byte-equal to the
// corresponding single-frame segmentations at any thread count.
//
// Per-stream state (Segmentation, IterationScratch — whose planes are the
// RGB path's conversion target — and Instrumentation) is pooled by slot
// index: a steady-state caller that
// feeds batches of the same size and geometry runs allocation-free after
// the first batch (asserted by tests/test_fused.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/telemetry.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"

namespace sslic {

/// Multi-frame batch front end over CpaSlic / PpaSlic.
class BatchSegmenter {
 public:
  /// Which segmenter runs each frame of the batch.
  enum class Algorithm {
    kCpa = 0,  ///< center-perspective baseline (slic_baseline.h)
    kPpa = 1,  ///< pixel-perspective architecture (subsampled.h)
  };

  explicit BatchSegmenter(SlicParams params, Algorithm algorithm = Algorithm::kCpa,
                          DataWidth data_width = DataWidth::float64());

  /// Segments `frames[0..count)` (Lab input — the kernel-facing format).
  /// After the call, results()[i] and instrumentation()[i] describe
  /// frames[i]. The returned spans stay valid until the next segment call
  /// or destruction. Frames may differ in geometry; only same-geometry
  /// steady state is allocation-free.
  void segment_lab_batch(const LabImage* frames, std::size_t count);

  /// Convenience overload.
  void segment_lab_batch(const std::vector<LabImage>& frames) {
    segment_lab_batch(frames.data(), frames.size());
  }

  /// RGB batch: converts each frame straight into its slot's Lab planes
  /// (reused across batches), then segments as above.
  void segment_batch(const RgbImage* frames, std::size_t count);
  void segment_batch(const std::vector<RgbImage>& frames) {
    segment_batch(frames.data(), frames.size());
  }

  /// Results of the last batch, one entry per input frame.
  [[nodiscard]] const std::vector<Segmentation>& results() const {
    return results_;
  }
  /// Per-frame instrumentation of the last batch (parallel to results()).
  [[nodiscard]] const std::vector<Instrumentation>& instrumentation() const {
    return instrumentation_;
  }

  [[nodiscard]] const SlicParams& params() const { return params_; }
  [[nodiscard]] Algorithm algorithm() const { return algorithm_; }

  /// Process-unique id keying this instance's telemetry names
  /// (`sslic.batch.<id>....`), so two segmenters in one process never
  /// alias each other's counters.
  [[nodiscard]] int instance_id() const { return instance_id_; }

 private:
  void ensure_slots(std::size_t count);
  void run_batch(std::size_t count, bool frames_are_rgb,
                 const LabImage* lab_frames, const RgbImage* rgb_frames);

  SlicParams params_;
  Algorithm algorithm_;
  int instance_id_;
  CpaSlic cpa_;
  PpaSlic ppa_;
  // Telemetry counters, resolved once at construction so per-batch calls
  // skip the registry's string-key lookup (it allocates, and steady-state
  // batches must not). Names carry instance_id_ — a global singleton key
  // would silently merge two segmenters' gauges (the inflight gauge of a
  // finished batch would clobber a running one's). MetricsRegistry::clear()
  // invalidates these like any cached metric reference — construct the
  // segmenter after registry resets, not before.
  telemetry::Counter* batch_runs_;
  telemetry::Counter* batch_frames_;
  // Live-progress metrics for the ops plane (/varz while a batch runs):
  // frames_done ticks per completed frame from whichever worker ran it
  // (lock-free add), inflight holds the current batch size and drops to 0
  // when the batch returns.
  telemetry::Counter* batch_frames_done_;
  telemetry::Gauge* batch_inflight_;

  // Slot-indexed per-stream state; grows to the largest batch seen.
  std::vector<Segmentation> results_;
  std::vector<Instrumentation> instrumentation_;
  std::vector<IterationScratch> scratch_;
};

}  // namespace sslic
