#include "slic/temporal.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "slic/slic_baseline.h"
#include "slic/subset_schedule.h"

namespace sslic {

TemporalSlic::TemporalSlic(SlicParams params, DataWidth data_width,
                           int warm_iterations)
    : params_(params), data_width_(data_width), warm_iterations_(warm_iterations) {
  SSLIC_CHECK(warm_iterations >= 0);
  if (warm_iterations_ == 0)
    warm_iterations_ = default_warm_iterations(params_);
}

int TemporalSlic::default_warm_iterations(const SlicParams& params) {
  const int subsets =
      SubsetSchedule::from_ratio(params.subsample_ratio).count();
  return std::max(subsets, params.max_iterations / 2);
}

const Segmentation& TemporalSlic::next_frame(const RgbImage& frame,
                                             Instrumentation* instrumentation,
                                             PhaseTimer* phases) {
  // Every frame gets a frame context: keep the caller's ambient id if one
  // is installed (e.g. a pipeline that minted per-frame ids itself), mint a
  // fresh one otherwise so standalone sequential runs still produce
  // joinable spans/exemplars. Observational only — never read by the
  // segmentation itself.
  const std::uint64_t ambient = trace::current_trace_id();
  const trace::FrameScope frame_scope(ambient != 0 ? ambient
                                                   : trace::mint_trace_id());

  const bool can_warm = has_state() && frame.width() == state_width_ &&
                        frame.height() == state_height_;

  SlicParams frame_params = params_;
  if (can_warm) frame_params.max_iterations = warm_iterations_;
  const PpaSlic segmenter(frame_params, data_width_);
  {
    Stopwatch watch;
    srgb_to_lab(frame, scratch_.planes, segmenter.stride());
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseColorConversion, watch.elapsed_ms());
  }
  segmenter.segment_planes_into(scratch_.planes,
                                can_warm ? &previous_centers_ : nullptr,
                                result_, scratch_, {}, instrumentation, phases);

  // Same center count in steady state: copy-assign reuses the storage.
  previous_centers_ = result_.centers;
  state_width_ = frame.width();
  state_height_ = frame.height();
  return result_;
}

}  // namespace sslic
