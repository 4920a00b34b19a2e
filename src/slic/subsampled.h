// Pixel Perspective Architecture (PPA) S-SLIC — the paper's core
// contribution (Sections 3, 4.2, 4.3, Fig. 1b).
//
// Each pixel carries a static precomputed list of its 9 candidate centers
// (the grid cell's center and its 8 neighbours). Per iteration, a
// round-robin subset of the pixels (ratio 1, 1/2, or 1/4) computes its 9
// color-space distances, takes the minimum, updates its label and running
// minimum distance, and accumulates into the winning center's sigma
// registers; all centers are then recomputed from the subset's
// contributions (the OS-EM-style update of Section 3).
//
// The optional data-width quantization reproduces the Section 6.1 bit-width
// exploration; the optional preemptive extension freezes converged centers
// and skips tiles whose 9 candidates are all frozen (Section 8's
// "orthogonal, combinable" Preemptive SLIC idea).
#pragma once

#include "color/color_convert.h"
#include "common/stopwatch.h"
#include "slic/distance.h"
#include "slic/instrumentation.h"
#include "slic/iteration_scratch.h"
#include "slic/types.h"

namespace sslic {

/// PPA S-SLIC segmenter (gSLIC-style full PPA when subsample_ratio == 1).
class PpaSlic {
 public:
  explicit PpaSlic(SlicParams params, DataWidth data_width = DataWidth::float64());

  [[nodiscard]] Segmentation segment(const RgbImage& image,
                                     const IterationCallback& callback = {},
                                     Instrumentation* instrumentation = nullptr,
                                     PhaseTimer* phases = nullptr) const;

  [[nodiscard]] Segmentation segment_lab(const LabImage& lab,
                                         const IterationCallback& callback = {},
                                         Instrumentation* instrumentation = nullptr,
                                         PhaseTimer* phases = nullptr) const;

  /// Temporal warm start: like segment_lab, but cluster centers start from
  /// `initial_centers` (e.g. the previous video frame's result) instead of
  /// the grid seeding. The center count must match this image's grid
  /// (same resolution and K); positions are clamped into the image.
  [[nodiscard]] Segmentation segment_lab_warm(
      const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
      const IterationCallback& callback = {},
      Instrumentation* instrumentation = nullptr,
      PhaseTimer* phases = nullptr) const;

  /// Buffer-reusing variants: split `lab` into scratch.planes at stride()
  /// and run segment_planes_into, writing into `result`. Repeated calls at
  /// an unchanged geometry make the run allocation-free (asserted by
  /// tests/test_fused.cpp). Results are identical to the value-returning
  /// overloads.
  void segment_lab_into(const LabImage& lab, Segmentation& result,
                        IterationScratch& scratch,
                        const IterationCallback& callback = {},
                        Instrumentation* instrumentation = nullptr,
                        PhaseTimer* phases = nullptr) const;
  void segment_lab_warm_into(const LabImage& lab,
                             const std::vector<ClusterCenter>& initial_centers,
                             Segmentation& result, IterationScratch& scratch,
                             const IterationCallback& callback = {},
                             Instrumentation* instrumentation = nullptr,
                             PhaseTimer* phases = nullptr) const;

  /// Column stride of the subset-major layout the iterations read:
  /// SubsetSchedule::stride() of the configured ratio and pattern. The
  /// planes core takes its planes at this stride.
  [[nodiscard]] int stride() const { return stride_; }

  /// The core every entry point runs. `planes` holds the frame with rows
  /// at SubsetMajorRow{width, stride()} (planes.stride must equal
  /// stride()) — what srgb_to_lab(rgb, planes, stride()) produces, with no
  /// split pass. A non-null `warm_centers` starts from those centers as
  /// segment_lab_warm does. `planes` may be `scratch.planes`; the core
  /// never writes it. Results are byte-identical to the LabImage overloads
  /// on the same frame, and repeated calls at an unchanged geometry are
  /// allocation-free.
  void segment_planes_into(const LabPlanes& planes,
                           const std::vector<ClusterCenter>* warm_centers,
                           Segmentation& result, IterationScratch& scratch,
                           const IterationCallback& callback = {},
                           Instrumentation* instrumentation = nullptr,
                           PhaseTimer* phases = nullptr) const;

  [[nodiscard]] const SlicParams& params() const { return params_; }
  [[nodiscard]] const DataWidth& data_width() const { return data_width_; }

 private:
  SlicParams params_;
  DataWidth data_width_;
  int stride_;
};

}  // namespace sslic
