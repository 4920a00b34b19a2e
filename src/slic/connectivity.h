// Connectivity enforcement (paper Section 2): after convergence "a final
// step is performed to enforce the connectivity, ensuring that any stray
// pixels that may still be disjoint are assigned to the closest large SP".
//
// This is Achanta et al.'s post-pass: relabel 4-connected components in
// scan order; components smaller than a quarter of the mean superpixel size
// are absorbed into the previously-labelled adjacent component.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "image/image.h"

namespace sslic {

struct ConnectivityResult {
  int final_label_count = 0;    ///< labels after relabelling (0..count-1)
  int components_merged = 0;    ///< stray fragments absorbed
  std::size_t pixels_moved = 0; ///< pixels whose label changed by merging
};

/// One horizontal run of a component: columns [x0, x1) of row y.
struct ConnectivitySpan {
  int y = 0;
  int x0 = 0;
  int x1 = 0;
};

/// Working buffers of the span-core relabelling pass, a scanline fill: each
/// entry is a run of one row, so no flat index is ever divided back into
/// coordinates, and row offsets are 64-bit so the pass addresses rasters
/// beyond 2^31 pixels (the out-of-core tiled driver runs it over gigapixel
/// label planes). The vectors grow on demand; `members` records runs only
/// until the component reaches min_size pixels (once a component is
/// provably large it can never be absorbed, so its remaining members need
/// no tracking) — which keeps it proportional to the fragment threshold,
/// not the image.
struct ConnectivitySpanScratch {
  std::vector<ConnectivitySpan> stack;    ///< filled runs left to expand
  std::vector<ConnectivitySpan> members;  ///< current component's runs
};

/// Reusable working buffers of enforce_connectivity. A caller that keeps
/// one of these across frames (e.g. TemporalSlic's IterationScratch) makes
/// the pass allocation-free at steady state: the worklists are reserved to
/// their worst case on the first call per image size, and the relabelled
/// output plane is recycled by swapping it with the caller's label image.
struct ConnectivityScratch {
  LabelImage out;
  ConnectivitySpanScratch span;
};

/// Span core of the connectivity pass: relabels `labels` (w x h, row-major)
/// into `out` — the exact scan-order component relabelling + stray-fragment
/// absorption of enforce_connectivity, over raw planes so callers can run
/// it on memory-mapped label rasters without materializing a LabelImage.
/// `out` must not alias `labels`; it is fully overwritten. `on_row_done`
/// (optional) fires after each completed scan row — the out-of-core driver
/// uses it to drop resident pages behind the scan cursor. `out_prefilled`
/// skips the initial fill of `out` with -1; the caller must have done it
/// (the out-of-core driver prefills in released row chunks so the whole
/// plane never sits dirty-resident at once).
ConnectivityResult enforce_connectivity_span(
    const std::int32_t* labels, std::int32_t* out, int w, int h,
    int expected_superpixels, ConnectivitySpanScratch& scratch,
    const std::function<void(int y)>& on_row_done = {},
    bool out_prefilled = false);

/// Enforces 4-connectivity in place. `expected_superpixels` sets the
/// minimum-fragment threshold to (N / expected_superpixels) / 4, matching
/// the reference SLIC implementation. Output labels are compact (0..n-1).
/// `scratch` is optional; passing one amortizes all working allocations
/// across calls.
ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch = nullptr);

/// True when every label forms a single 4-connected component.
bool is_fully_connected(const LabelImage& labels);

}  // namespace sslic
