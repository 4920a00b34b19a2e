#include "slic/grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "image/gradient.h"

namespace sslic {

CenterGrid::CenterGrid(int width, int height, int num_superpixels)
    : width_(width), height_(height) {
  SSLIC_CHECK(width >= 2 && height >= 2);
  SSLIC_CHECK(num_superpixels >= 1);
  const double n = static_cast<double>(width) * static_cast<double>(height);
  spacing_ = std::sqrt(n / num_superpixels);
  nx_ = std::max(1, static_cast<int>(std::lround(width / spacing_)));
  ny_ = std::max(1, static_cast<int>(std::lround(height / spacing_)));
}

int CenterGrid::cell_x(int x) const {
  SSLIC_DCHECK(x >= 0 && x < width_);
  const auto gx = static_cast<int>(static_cast<std::int64_t>(x) * nx_ / width_);
  return std::min(gx, nx_ - 1);
}

int CenterGrid::cell_y(int y) const {
  SSLIC_DCHECK(y >= 0 && y < height_);
  const auto gy = static_cast<int>(static_cast<std::int64_t>(y) * ny_ / height_);
  return std::min(gy, ny_ - 1);
}

int CenterGrid::cell_x_begin(int gx) const {
  SSLIC_DCHECK(gx >= 0 && gx <= nx_);
  // Smallest x with x * nx >= gx * width, i.e. ceil(gx * width / nx).
  return static_cast<int>(
      (static_cast<std::int64_t>(gx) * width_ + nx_ - 1) / nx_);
}

int CenterGrid::cell_y_begin(int gy) const {
  SSLIC_DCHECK(gy >= 0 && gy <= ny_);
  return static_cast<int>(
      (static_cast<std::int64_t>(gy) * height_ + ny_ - 1) / ny_);
}

std::int32_t CenterGrid::center_index(int gx, int gy) const {
  SSLIC_DCHECK(gx >= 0 && gx < nx_ && gy >= 0 && gy < ny_);
  return static_cast<std::int32_t>(gy) * nx_ + gx;
}

double CenterGrid::center_pos_x(int gx) const {
  return (gx + 0.5) * static_cast<double>(width_) / nx_;
}

double CenterGrid::center_pos_y(int gy) const {
  return (gy + 0.5) * static_cast<double>(height_) / ny_;
}

std::vector<ClusterCenter> seed_centers(const CenterGrid& grid,
                                        const LabImage& lab,
                                        bool perturb_to_gradient_minimum) {
  std::vector<ClusterCenter> centers;
  Image<float> gradient;
  seed_centers(grid, lab, perturb_to_gradient_minimum, centers, gradient);
  return centers;
}

namespace {

/// The seeding loop shared by both entry points: `argmin(px, py)` is the
/// 3x3 gradient minimum around a grid position and `color(px, py)` the Lab
/// colour of a pixel.
template <typename Argmin, typename Color>
void seed_grid(const CenterGrid& grid, bool perturb_to_gradient_minimum,
               std::vector<ClusterCenter>& centers, const Argmin& argmin,
               const Color& color) {
  centers.resize(static_cast<std::size_t>(grid.num_centers()));
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      int px = std::clamp(static_cast<int>(grid.center_pos_x(gx)), 0,
                          grid.width() - 1);
      int py = std::clamp(static_cast<int>(grid.center_pos_y(gy)), 0,
                          grid.height() - 1);
      if (perturb_to_gradient_minimum) {
        const Point p = argmin(px, py);
        px = p.x;
        py = p.y;
      }
      const LabF c = color(px, py);
      centers[static_cast<std::size_t>(grid.center_index(gx, gy))] = {
          static_cast<double>(c.L), static_cast<double>(c.a),
          static_cast<double>(c.b), static_cast<double>(px),
          static_cast<double>(py)};
    }
  }
}

}  // namespace

void seed_centers(const CenterGrid& grid, const LabImage& lab,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers,
                  Image<float>& gradient_scratch) {
  SSLIC_CHECK(lab.width() == grid.width() && lab.height() == grid.height());
  if (perturb_to_gradient_minimum)
    lab_gradient_magnitude(lab, gradient_scratch);
  seed_grid(
      grid, perturb_to_gradient_minimum, centers,
      [&](int px, int py) {
        return argmin_gradient_3x3(gradient_scratch, px, py);
      },
      [&](int px, int py) { return lab(px, py); });
}

void seed_centers(const CenterGrid& grid, const LabPlanes& planes,
                  bool perturb_to_gradient_minimum,
                  std::vector<ClusterCenter>& centers) {
  SSLIC_CHECK(planes.width() == grid.width() &&
              planes.height() == grid.height());
  const SubsetMajorRow layout{planes.width(), planes.stride};
  seed_grid(
      grid, perturb_to_gradient_minimum, centers,
      [&](int px, int py) { return argmin_gradient_3x3(planes, px, py); },
      [&](int px, int py) {
        const int pos = layout.position(px);
        return LabF{planes.L(pos, py), planes.a(pos, py), planes.b(pos, py)};
      });
}

std::vector<CandidateList> build_candidate_map(const CenterGrid& grid) {
  std::vector<CandidateList> map(
      static_cast<std::size_t>(grid.nx()) * static_cast<std::size_t>(grid.ny()));
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      CandidateList& list =
          map[static_cast<std::size_t>(grid.center_index(gx, gy))];
      std::size_t slot = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int cx = std::clamp(gx + dx, 0, grid.nx() - 1);
          const int cy = std::clamp(gy + dy, 0, grid.ny() - 1);
          list[slot++] = grid.center_index(cx, cy);
        }
      }
    }
  }
  return map;
}

LabelImage initial_labels(const CenterGrid& grid) {
  LabelImage labels;
  initial_labels(grid, labels);
  return labels;
}

void initial_labels(const CenterGrid& grid, LabelImage& labels, int stride) {
  SSLIC_CHECK(stride >= 1);
  const int w = grid.width();
  const int h = grid.height();
  if (labels.width() != w || labels.height() != h) labels = LabelImage(w, h);
  // Row 0 (grid row 0, so its labels are the grid columns): each stride
  // phase's columns p, p + stride, ... are one contiguous run of the
  // subset-major row, and cell_x is non-decreasing along it, so the run
  // splits into one constant run per grid column.
  const SubsetMajorRow layout{w, stride};
  std::int32_t* const row0 = labels.data();
  for (int p = 0; p < stride && p < w; ++p) {
    std::int32_t* out = row0 + layout.offset(p);
    int x = p;
    for (int gx = 0; gx < grid.nx() && x < w; ++gx) {
      const int end = grid.cell_x_begin(gx + 1);
      for (; x < end; x += stride) *out++ = gx;
    }
  }
  // Every other row is row 0 plus its grid row's first center index: built
  // once per grid row, then copied to the rest of the grid row's rows.
  const auto wz = static_cast<std::size_t>(w);
  parallel_for(0, grid.ny(), [&](std::int64_t glo, std::int64_t ghi) {
    for (auto gy = static_cast<int>(glo); gy < static_cast<int>(ghi); ++gy) {
      const int y0 = grid.cell_y_begin(gy);
      const int y1 = grid.cell_y_begin(gy + 1);
      if (y0 >= y1) continue;
      std::int32_t* const first = row0 + static_cast<std::size_t>(y0) * wz;
      if (gy != 0) {
        const std::int32_t base = grid.center_index(0, gy);
        for (std::size_t i = 0; i < wz; ++i) first[i] = row0[i] + base;
      }
      for (int y = y0 + 1; y < y1; ++y)
        std::copy(first, first + wz, row0 + static_cast<std::size_t>(y) * wz);
    }
  });
}

}  // namespace sslic
