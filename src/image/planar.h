// Structure-of-arrays pixel layouts for the vectorized assignment kernels.
//
// The accelerator feeds its parallel distance datapath from *banked* planar
// scratch pads (one channel memory per Lab component, Fig. 4 / Section
// 4.3), and its colour-conversion unit writes each channel straight into
// its memory. `LabPlanes` is the software analogue of those channel
// memories for the floating-point path: three planar float rasters that
// the frame path converts into directly (srgb_to_lab(const RgbImage&,
// LabPlanes&, int), color/color_convert.h), in the row layout the
// segmenter's kernels read (SubsetMajorRow). The interleaved `LabImage`
// survives only at the LabImage entry points, which split it once with
// split_lab_planes. The 8-bit fixed-point path already has its planar form
// (`Planar8`, image/image.h).
#pragma once

#include <cstddef>

#include "common/check.h"
#include "common/thread_pool.h"
#include "image/image.h"

namespace sslic {

/// Three planar float rasters — L, a, b channel planes of one Lab frame.
/// Every row is stored at SubsetMajorRow{width(), stride} (below): pixel
/// (x, y) of the frame sits at column SubsetMajorRow::position(x) of row y
/// in each plane. Stride 1 is the natural row-major order.
struct LabPlanes {
  Image<float> L;
  Image<float> a;
  Image<float> b;
  /// Column stride of the rows' subset-major order; set by whatever fills
  /// the planes (split_lab_planes, srgb_to_lab), checked by the segmenters.
  int stride = 1;

  LabPlanes() = default;
  LabPlanes(int width, int height)
      : L(width, height), a(width, height), b(width, height) {}

  [[nodiscard]] int width() const { return L.width(); }
  [[nodiscard]] int height() const { return L.height(); }
  [[nodiscard]] bool empty() const { return L.empty(); }
};

/// Column order of a subset-major row. With stride s, a row of `width`
/// pixels stores the columns of each stride phase one after another:
/// x = 0, s, 2s, ..., then x = 1, 1+s, ..., up to phase s-1. Any arithmetic
/// progression of columns with step s is then one contiguous run, which is
/// how the S-SLIC iterations reach exactly the active subset's pixels
/// (DESIGN.md "Subset-major PPA iterations"). Stride 1 is the natural
/// row-major order.
struct SubsetMajorRow {
  int width = 0;
  int stride = 1;

  /// Number of columns x < width with x % stride == phase.
  [[nodiscard]] int columns(int phase) const {
    return width / stride + (phase < width % stride ? 1 : 0);
  }
  /// Index of phase `phase`'s first column within the permuted row.
  [[nodiscard]] int offset(int phase) const {
    const int rem = width % stride;
    return phase * (width / stride) + (phase < rem ? phase : rem);
  }
  /// Index of column x within the permuted row.
  [[nodiscard]] int position(int x) const {
    return offset(x % stride) + x / stride;
  }
};

/// Row-parallel loop over a subset-major raster: calls
/// body(natural_index, permuted_index, count) once per stride phase of every
/// row, where the phase's columns sit at natural_index + k * stride and
/// permuted_index + k for k < count.
template <typename Body>
void for_each_phase_run(int width, int height, int stride, Body&& body) {
  SSLIC_CHECK(stride >= 1);
  const SubsetMajorRow layout{width, stride};
  const auto w = static_cast<std::size_t>(width);
  parallel_for(0, height, [&](std::int64_t ylo, std::int64_t yhi) {
    for (auto y = static_cast<std::size_t>(ylo);
         y < static_cast<std::size_t>(yhi); ++y) {
      for (int p = 0; p < stride && p < width; ++p) {
        body(y * w + static_cast<std::size_t>(p),
             y * w + static_cast<std::size_t>(layout.offset(p)),
             static_cast<std::size_t>(layout.columns(p)));
      }
    }
  });
}

/// Splits an interleaved Lab image into planar channel planes (row-parallel;
/// a pure data-layout change — every float is copied bit-for-bit).
LabPlanes split_lab_planes(const LabImage& lab);

/// In-place variant: splits into `planes`, resizing only when the
/// dimensions change (allocation-free at steady state). Rows are stored
/// subset-major with `stride` (see SubsetMajorRow); the default of 1 keeps
/// the natural row-major layout.
void split_lab_planes(const LabImage& lab, LabPlanes& planes, int stride = 1);

/// Restores the row-major order of labels stored subset-major with
/// `stride` into `natural`, which must already have the dimensions of
/// `permuted` (row-parallel).
void from_subset_major(const LabelImage& permuted, int stride,
                       LabelImage& natural);

}  // namespace sslic
