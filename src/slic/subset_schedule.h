// Round-robin subset schedules for S-SLIC (paper Section 3).
//
// "The image pixels are split into subsets of equal size. At each
//  iteration, a different subset is used to update the SPs. The subsets
//  are traversed in a round-robin fashion to guarantee that all image
//  pixels are considered."
//
// Subsets must be spatially uniform — every superpixel must see a
// representative sample of its pixels each iteration or its center estimate
// becomes biased (the OS-EM/stochastic-gradient convergence argument the
// paper invokes). We therefore use dithered spatial patterns, not scanline
// blocks: 2 subsets form a checkerboard, 4 subsets a 2x2 Bayer block, and
// other counts fall back to diagonal striping.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace sslic {

/// How the pixel lattice is carved into subsets.
enum class SubsetPattern {
  /// Maximally dispersed dither (checkerboard / Bayer / diagonal): the
  /// statistically best-behaved choice — every superpixel sees a uniform
  /// sample each iteration (default).
  kDithered,
  /// Whole rows round-robin (rows where y % count == iteration % count).
  /// Hardware-friendly: inactive rows are whole DRAM bursts that can be
  /// skipped, which is how the accelerator banks its bandwidth saving.
  /// Slightly less uniform vertically.
  kRowInterleaved,
};

/// Spatially-uniform partition of the pixel lattice into `count` subsets.
class SubsetSchedule {
 public:
  explicit SubsetSchedule(int count,
                          SubsetPattern pattern = SubsetPattern::kDithered);

  /// Builds the schedule corresponding to a subsampling ratio: ratio 1.0 ->
  /// 1 subset (plain SLIC), 0.5 -> 2, 0.25 -> 4. The ratio must be 1/n for
  /// an integer n in [1, 64].
  static SubsetSchedule from_ratio(double ratio,
                                   SubsetPattern pattern = SubsetPattern::kDithered);

  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] SubsetPattern pattern_kind() const {
    return pattern_ == Pattern::kRows ? SubsetPattern::kRowInterleaved
                                      : SubsetPattern::kDithered;
  }

  /// Subset index of pixel (x, y), in [0, count).
  [[nodiscard]] int subset_of(int x, int y) const {
    switch (pattern_) {
      case Pattern::kAll:
        return 0;
      case Pattern::kCheckerboard:
        return (x + y) & 1;
      case Pattern::kBayer2x2:
        return (x & 1) | ((y & 1) << 1);
      case Pattern::kDiagonal:
        return (x + 2 * y) % count_;
      case Pattern::kRows:
        return y % count_;
    }
    return 0;
  }

  /// True when pixel (x, y) is active in iteration `iteration` (subsets are
  /// visited round-robin).
  [[nodiscard]] bool active(int x, int y, int iteration) const {
    return subset_of(x, y) == iteration % count_;
  }

  /// Column stride of every pattern's active set within a row: the active
  /// pixels of row y at any iteration are x = row_phase(y, iteration) +
  /// k * stride() for k = 0, 1, ... — one arithmetic progression (2 for
  /// checkerboard and Bayer, `count` for diagonal, 1 for rows and all).
  [[nodiscard]] int stride() const {
    switch (pattern_) {
      case Pattern::kCheckerboard:
      case Pattern::kBayer2x2:
        return 2;
      case Pattern::kDiagonal:
        return count_;
      case Pattern::kAll:
      case Pattern::kRows:
        return 1;
    }
    return 1;
  }

  /// First active column of row y at iteration `iteration` on an unbounded
  /// lattice, in [0, stride()); -1 when no pixel of the row is active. On a
  /// raster narrower than the phase the row has no active pixel either.
  [[nodiscard]] int row_phase(int y, int iteration) const {
    const int sub = active_subset(iteration);
    switch (pattern_) {
      case Pattern::kAll:
        return 0;
      case Pattern::kCheckerboard:
        return (sub ^ y) & 1;
      case Pattern::kBayer2x2:
        return (sub >> 1) == (y & 1) ? (sub & 1) : -1;
      case Pattern::kDiagonal:
        // x + 2y == sub (mod count)  <=>  x == sub - 2y (mod count).
        return static_cast<int>(
            ((sub - 2 * static_cast<std::int64_t>(y)) % count_ + count_) %
            count_);
      case Pattern::kRows:
        return y % count_ == sub ? 0 : -1;
    }
    return -1;
  }

  /// The subset visited at iteration `iteration`.
  [[nodiscard]] int active_subset(int iteration) const {
    SSLIC_DCHECK(iteration >= 0);
    return iteration % count_;
  }

 private:
  enum class Pattern { kAll, kCheckerboard, kBayer2x2, kDiagonal, kRows };

  int count_ = 1;
  Pattern pattern_ = Pattern::kAll;
};

}  // namespace sslic
