#include "slic/batch.h"

#include <atomic>
#include <cstdint>
#include <string>

#include "color/color_convert.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace sslic {

namespace {

int next_batch_instance_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string batch_metric(int instance, const char* metric) {
  return "sslic.batch." + std::to_string(instance) + "." + metric;
}

}  // namespace

BatchSegmenter::BatchSegmenter(SlicParams params, Algorithm algorithm,
                               DataWidth data_width)
    : params_(params),
      algorithm_(algorithm),
      instance_id_(next_batch_instance_id()),
      cpa_(params),
      ppa_(params, data_width),
      batch_runs_(&telemetry::MetricsRegistry::global().counter(
          batch_metric(instance_id_, "runs"))),
      batch_frames_(&telemetry::MetricsRegistry::global().counter(
          batch_metric(instance_id_, "frames"))),
      batch_frames_done_(&telemetry::MetricsRegistry::global().counter(
          batch_metric(instance_id_, "frames_done"))),
      batch_inflight_(&telemetry::MetricsRegistry::global().gauge(
          batch_metric(instance_id_, "inflight"))) {}

void BatchSegmenter::ensure_slots(std::size_t count) {
  // Grow-only: shrinking would free the very buffers a steady-state caller
  // is reusing. Slots beyond the current batch just sit idle.
  if (results_.size() < count) {
    results_.resize(count);
    instrumentation_.resize(count);
    scratch_.resize(count);
  }
}

void BatchSegmenter::run_batch(std::size_t count, bool frames_are_rgb,
                               const LabImage* lab_frames,
                               const RgbImage* rgb_frames) {
  if (count == 0) return;
  SSLIC_TRACE_SCOPE("batch.segment", static_cast<std::int64_t>(count));
  ensure_slots(count);
  batch_runs_->add();
  batch_frames_->add(count);
  batch_inflight_->set(static_cast<double>(count));

  // Frame-context propagation: pool workers run on their own threads, so
  // the caller's ambient trace id (trace.h) would be invisible there.
  // Capture it here and re-install it per frame — every frame of the batch
  // shares the caller's id (a batch is one request; per-frame ids are the
  // StreamEngine's job, which stamps them before dispatch).
  const std::uint64_t ambient_trace_id = trace::current_trace_id();

  // One pool drain for the whole batch: frames are the chunks. Inside a
  // worker the inner segmenter sees in_parallel_region() and runs its
  // serial path, which the determinism contract makes bit-identical to
  // every parallel path — so batch results match single-frame runs byte
  // for byte at any thread count.
  const auto run_frame = [&](std::size_t i) {
    const trace::FrameScope frame_scope(ambient_trace_id);
    SSLIC_TRACE_SCOPE_AT(1, "batch.frame", static_cast<std::int64_t>(i));
    Segmentation& result = results_[i];
    IterationScratch& scratch = scratch_[i];
    Instrumentation* instr = &instrumentation_[i];
    // RGB frames convert straight into the segmenter's planes: no
    // interleaved Lab copy.
    if (algorithm_ == Algorithm::kCpa) {
      if (frames_are_rgb) {
        srgb_to_lab(rgb_frames[i], scratch.planes, 1);
        cpa_.segment_planes_into(scratch.planes, result, scratch, {}, instr);
      } else {
        cpa_.segment_lab_into(lab_frames[i], result, scratch, {}, instr);
      }
    } else if (frames_are_rgb) {
      srgb_to_lab(rgb_frames[i], scratch.planes, ppa_.stride());
      ppa_.segment_planes_into(scratch.planes, nullptr, result, scratch, {},
                               instr);
    } else {
      ppa_.segment_lab_into(lab_frames[i], result, scratch, {}, instr);
    }
    batch_frames_done_->add();
  };
  ThreadPool& pool = ThreadPool::global();
  if (pool.threads() <= 1 || count <= 1 || ThreadPool::in_parallel_region()) {
    for (std::size_t i = 0; i < count; ++i) run_frame(i);
  } else {
    pool.run_chunks(count, run_frame);
  }
  batch_inflight_->set(0.0);
}

void BatchSegmenter::segment_lab_batch(const LabImage* frames,
                                       std::size_t count) {
  run_batch(count, /*frames_are_rgb=*/false, frames, nullptr);
}

void BatchSegmenter::segment_batch(const RgbImage* frames, std::size_t count) {
  run_batch(count, /*frames_are_rgb=*/true, nullptr, frames);
}

}  // namespace sslic
