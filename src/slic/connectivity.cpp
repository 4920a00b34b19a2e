#include "slic/connectivity.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/trace.h"

namespace sslic {
namespace {

constexpr int kDx[4] = {-1, 1, 0, 0};
constexpr int kDy[4] = {0, 0, -1, 1};

}  // namespace

ConnectivityResult enforce_connectivity_span(
    const std::int32_t* labels, std::int32_t* out, int w, int h,
    int expected_superpixels, ConnectivitySpanScratch& scratch,
    const std::function<void(int y)>& on_row_done, bool out_prefilled) {
  SSLIC_CHECK(expected_superpixels >= 1);
  SSLIC_CHECK(w > 0 && h > 0);
  SSLIC_CHECK(labels != nullptr && out != nullptr && labels != out);
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t min_size =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(expected_superpixels) / 4);

  if (!out_prefilled) std::fill(out, out + n, std::int32_t{-1});
  std::vector<ConnectivitySpan>& stack = scratch.stack;
  std::vector<ConnectivitySpan>& members = scratch.members;
  ConnectivityResult result;
  std::int32_t next_label = 0;
  const auto row_offset = [w](int y) {
    return static_cast<std::ptrdiff_t>(y) * static_cast<std::ptrdiff_t>(w);
  };

  for (int y = 0; y < h; ++y) {
    std::int32_t* const out_row = out + row_offset(y);
    for (int x = 0; x < w; ++x) {
      if (out_row[x] >= 0) continue;

      // The component merged into when this one turns out to be a stray
      // fragment: the most recent already-relabelled 4-neighbour in scan
      // order — left, right, up, down; the last labelled one wins (exists
      // for every component except the first).
      std::int32_t adjacent_label = next_label > 0 ? 0 : -1;
      if (x > 0 && out_row[x - 1] >= 0) adjacent_label = out_row[x - 1];
      if (x + 1 < w && out_row[x + 1] >= 0) adjacent_label = out_row[x + 1];
      if (y > 0 && out_row[x - w] >= 0) adjacent_label = out_row[x - w];
      if (y + 1 < h && out_row[x + w] >= 0) adjacent_label = out_row[x + w];

      // Scanline-fill this component under the original labelling: each
      // seed grows into the maximal unfilled run of its row, which is
      // filled at once and queued so the rows above and below it get
      // scanned for further seeds. Runs are recorded only while the
      // component could still be absorbed (fewer than min_size pixels
      // seen) — a larger component keeps its label.
      const std::int32_t original = labels[row_offset(y) + x];
      std::size_t member_count = 0;
      stack.clear();
      members.clear();
      const auto fill_run = [&](int fy, int fx) {
        const std::int32_t* const lrow = labels + row_offset(fy);
        std::int32_t* const orow = out + row_offset(fy);
        int x0 = fx;
        int x1 = fx + 1;
        while (x0 > 0 && orow[x0 - 1] < 0 && lrow[x0 - 1] == original) --x0;
        while (x1 < w && orow[x1] < 0 && lrow[x1] == original) ++x1;
        std::fill(orow + x0, orow + x1, next_label);
        if (member_count < min_size) members.push_back({fy, x0, x1});
        member_count += static_cast<std::size_t>(x1 - x0);
        stack.push_back({fy, x0, x1});
        return x1;
      };
      fill_run(y, x);
      while (!stack.empty()) {
        const ConnectivitySpan span = stack.back();
        stack.pop_back();
        for (const int ny : {span.y - 1, span.y + 1}) {
          if (ny < 0 || ny >= h) continue;
          const std::int32_t* const lrow = labels + row_offset(ny);
          const std::int32_t* const orow = out + row_offset(ny);
          for (int cx = span.x0; cx < span.x1; ++cx) {
            if (orow[cx] >= 0 || lrow[cx] != original) continue;
            // Column x1 of the new run is filled or foreign: skip it too.
            cx = fill_run(ny, cx);
          }
        }
      }

      if (member_count < min_size && adjacent_label >= 0) {
        for (const ConnectivitySpan& run : members) {
          std::int32_t* const orow = out + row_offset(run.y);
          std::fill(orow + run.x0, orow + run.x1, adjacent_label);
        }
        result.components_merged += 1;
        result.pixels_moved += member_count;
      } else {
        ++next_label;
      }
    }
    if (on_row_done) on_row_done(y);
  }

  result.final_label_count = next_label;
  return result;
}

ConnectivityResult enforce_connectivity(LabelImage& labels,
                                        int expected_superpixels,
                                        ConnectivityScratch* scratch) {
  SSLIC_TRACE_SCOPE("slic.connectivity");
  const int w = labels.width();
  const int h = labels.height();
  SSLIC_CHECK(w > 0 && h > 0);
  const std::size_t n = labels.size();

  ConnectivityScratch local_scratch;
  ConnectivityScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  if (sc.out.width() != w || sc.out.height() != h) {
    sc.out = LabelImage(w, h);
    // Worst cases, reserved up front so every later call at this size is
    // allocation-free: runs of one component in one row are separated by
    // at least one foreign pixel, so the queue never holds more than
    // ceil(w/2) runs per row; members stops recording at min_size <= n/4
    // pixels, one run per entry at least.
    sc.span.stack.reserve(static_cast<std::size_t>(h) *
                          static_cast<std::size_t>((w + 1) / 2));
    sc.span.members.reserve(n / 4 + 1);
  }

  const ConnectivityResult result =
      enforce_connectivity_span(labels.pixels().data(), sc.out.pixels().data(),
                                w, h, expected_superpixels, sc.span);

  // Swap instead of move: the caller gets the relabelled plane and the
  // scratch keeps a right-sized buffer for the next frame.
  std::swap(labels, sc.out);
  return result;
}

bool is_fully_connected(const LabelImage& labels) {
  const int w = labels.width();
  const int h = labels.height();
  if (w == 0 || h == 0) return true;
  Image<std::uint8_t> seen(w, h, 0);
  std::vector<bool> label_seen;
  std::vector<std::int32_t> stack;

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (seen(x, y)) continue;
      const std::int32_t label = labels(x, y);
      SSLIC_CHECK(label >= 0);
      if (static_cast<std::size_t>(label) >= label_seen.size())
        label_seen.resize(static_cast<std::size_t>(label) + 1, false);
      if (label_seen[static_cast<std::size_t>(label)]) return false;  // 2nd component
      label_seen[static_cast<std::size_t>(label)] = true;

      seen(x, y) = 1;
      stack.clear();
      stack.push_back(static_cast<std::int32_t>(y) * w + x);
      while (!stack.empty()) {
        const std::int32_t flat = stack.back();
        stack.pop_back();
        const int cx = flat % w;
        const int cy = flat / w;
        for (int d = 0; d < 4; ++d) {
          const int nx2 = cx + kDx[d];
          const int ny2 = cy + kDy[d];
          if (nx2 < 0 || nx2 >= w || ny2 < 0 || ny2 >= h) continue;
          if (seen(nx2, ny2) || labels(nx2, ny2) != label) continue;
          seen(nx2, ny2) = 1;
          stack.push_back(static_cast<std::int32_t>(ny2) * w + nx2);
        }
      }
    }
  }
  return true;
}

}  // namespace sslic
