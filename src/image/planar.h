// Structure-of-arrays pixel layouts for the vectorized assignment kernels.
//
// The accelerator feeds its parallel distance datapath from *banked* planar
// scratch pads (one channel memory per Lab component, Fig. 4 / Section
// 4.3); the interleaved `LabImage` used by the reference algorithm path is
// the wrong shape for that access pattern on a CPU too — a SIMD lane wants
// `lanes` consecutive L values, not L/a/b triples. `LabPlanes` is the
// software analogue of the channel memories for the floating-point path:
// three planar float rasters split once per frame from the AoS image. The
// 8-bit fixed-point path already has its planar form (`Planar8`,
// image/image.h).
#pragma once

#include "image/image.h"

namespace sslic {

/// Three planar float rasters — L, a, b channel planes of one Lab frame.
struct LabPlanes {
  Image<float> L;
  Image<float> a;
  Image<float> b;

  LabPlanes() = default;
  LabPlanes(int width, int height) : L(width, height), a(width, height), b(width, height) {}

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

/// Splits an interleaved Lab image into planar channel planes (row-parallel;
/// a pure data-layout change — every float is copied bit-for-bit).
LabPlanes split_lab_planes(const LabImage& lab);

/// In-place variant: splits into `planes`, resizing only when the
/// dimensions change (allocation-free at steady state). Rows are stored
/// subset-major with `stride` (see SubsetMajorRow); the default of 1 keeps
/// the natural row-major layout.
void split_lab_planes(const LabImage& lab, LabPlanes& planes, int stride = 1);

/// Permutes every row of `natural` into subset-major order with `stride`
/// (row-parallel), resizing `out` only when the dimensions change.
void to_subset_major(const LabelImage& natural, int stride, LabelImage& out);

/// Inverse of to_subset_major: restores the row-major order into `natural`,
/// which must already have the dimensions of `permuted`.
void from_subset_major(const LabelImage& permuted, int stride,
                       LabelImage& natural);

}  // namespace sslic
