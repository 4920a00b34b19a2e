// Reusable per-run working state of the SLIC segmenters.
//
// Every buffer a segmentation run needs — the Lab channel planes, the
// min-distance plane, per-band sigma pools, subset-major labels,
// connectivity worklists — lives here instead of on the stack of
// segment_lab(), so a caller that keeps one IterationScratch across frames
// (TemporalSlic, StreamEngine, BatchSegmenter, the fused-iteration bench)
// pays the allocations once and runs every later frame of the same
// geometry with zero heap allocations (tests/test_fused.cpp asserts this
// with a counting operator new).
//
// `planes` is the frame's only Lab buffer on the frame path: the RGB entry
// points convert straight into it (srgb_to_lab(const RgbImage&,
// LabPlanes&, int)) in the segmenter's layout, and the LabImage entry
// points split into it; either way the segmenter's planes core then reads
// it. There is no interleaved copy and no image-sized gradient plane.
//
// All sizing is idempotent: buffers are grown on first use per geometry and
// merely re-filled afterwards (std::vector::assign and Image::fill do not
// reallocate at an unchanged size). The scratch carries no results — the
// labels/centers live in the caller's Segmentation — and one scratch can be
// shared between CPA and PPA runs (unused fields stay empty).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "image/image.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/grid.h"

namespace sslic {

/// Clamped 2Sx2S scan rectangle of one center (CPA assignment).
struct ScanWindow {
  int x0 = 0;
  int x1 = -1;
  int y0 = 0;
  int y1 = -1;

  [[nodiscard]] std::uint64_t pixels() const {
    return static_cast<std::uint64_t>(x1 - x0 + 1) *
           static_cast<std::uint64_t>(y1 - y0 + 1);
  }
};

/// Half-open column range [x0, x1) of one row.
struct ColumnRange {
  int x0 = 0;
  int x1 = 0;
};

/// Grid column of every pixel of a row under the PPA tile partition
/// x in [gx*w/nx, (gx+1)*w/nx) — the floor form the assignment loops use,
/// which is NOT CenterGrid::cell_x (ceil form; the two differ by one
/// column at most boundaries of e.g. w=1920, nx=94). Stored at
/// SubsetMajorRow{w, stride}.position(x), so the column map of a
/// subset-major run is the slice at the run's position.
inline void build_column_map(const CenterGrid& grid, int stride,
                             std::vector<std::int32_t>& map) {
  const int w = grid.width();
  const int nx = grid.nx();
  const SubsetMajorRow layout{w, stride};
  map.resize(static_cast<std::size_t>(w));
  for (int gx = 0; gx < nx; ++gx) {
    for (int x = gx * w / nx; x < (gx + 1) * w / nx; ++x)
      map[static_cast<std::size_t>(layout.position(x))] = gx;
  }
}

/// The center operands of band gy for assign_candidates_row: out[3*gx + r]
/// is grid column gx's center in row gy + r - 1 (clamped), for every
/// gx < nx — the rows build_candidate_map draws each cell's 9 from.
inline void fill_column_operands(const CenterGrid& grid,
                                 const std::vector<ClusterCenter>& centers,
                                 int gy, kernels::CenterOperand* out) {
  for (int gx = 0; gx < grid.nx(); ++gx) {
    for (int r = 0; r < 3; ++r) {
      const std::int32_t index =
          grid.center_index(gx, std::clamp(gy + r - 1, 0, grid.ny() - 1));
      const ClusterCenter& c = centers[static_cast<std::size_t>(index)];
      out[3 * gx + r] = {c.L, c.a, c.b, c.x, c.y, index};
    }
  }
}

/// Working buffers of one segmentation run; see the header comment.
struct IterationScratch {
  // --- Shared by CPA and PPA ---
  std::vector<Sigma> sigmas;  ///< merged sigma registers (K entries)
  /// The frame's Lab channel planes, in the segmenter's layout: row-major
  /// for CPA, subset-major with PpaSlic::stride() for PPA (image/planar.h).
  LabPlanes planes;
  ConnectivityScratch connectivity;

  // --- CPA (slic_baseline.cpp) ---
  std::vector<double> min_dist;      ///< running minimum-distance plane
  std::vector<std::uint8_t> active;  ///< per-center subset activity flags
  std::vector<ScanWindow> windows;   ///< clamped scan windows, K entries
  /// Fused iteration: one sigma pool per row band, merged in ascending
  /// band order after the band sweep (same reduction tree as the two-pass
  /// parallel_reduce, so centers match it bit for bit).
  std::vector<std::vector<Sigma>> band_sigmas;

  // --- PPA (subsampled.cpp) ---
  /// Quantized copy of `planes`, same layout (data widths below float only).
  LabPlanes stored;
  LabelImage subset_labels;  ///< labels in subset-major order, per iteration
  std::vector<std::uint8_t> frozen;  ///< preemptive: converged centers
  std::vector<std::uint8_t> calm_streak;
  std::vector<std::uint8_t> tile_skipped;
  /// Row-wide assignment inputs: the subset-major column map and the
  /// current band's 3 operands per grid column.
  std::vector<std::int32_t> column_map;
  std::vector<kernels::CenterOperand> column_ops;
  /// The current band's maximal column ranges of non-skipped cells (one
  /// range covering the row unless the preemptive extension skips cells).
  std::vector<ColumnRange> cell_runs;

  /// Sizes the per-band sigma pools (fused CPA path). The pools are
  /// re-zeroed by the band bodies each iteration; this only shapes them.
  void ensure_band_sigmas(std::size_t bands, std::size_t num_centers) {
    if (band_sigmas.size() != bands) band_sigmas.resize(bands);
    for (auto& pool : band_sigmas)
      if (pool.size() != num_centers) pool.resize(num_centers);
  }
};

}  // namespace sslic
