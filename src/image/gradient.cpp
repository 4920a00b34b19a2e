#include "image/gradient.h"

#include <algorithm>
#include <cmath>

namespace sslic {

namespace {

/// Squared Lab gradient at (x, y) of a w x h frame whose pixel (x, y) is
/// `at(x, y)`, with clamped neighbours. The one expression every gradient
/// entry point evaluates, so their values agree bit for bit.
template <typename At>
float gradient_at(const At& at, int w, int h, int x, int y) {
  const LabF xp = at(x + 1 < w ? x + 1 : w - 1, y);
  const LabF xm = at(x > 0 ? x - 1 : 0, y);
  const LabF yp = at(x, y + 1 < h ? y + 1 : h - 1);
  const LabF ym = at(x, y > 0 ? y - 1 : 0);
  const float dx_l = xp.L - xm.L, dx_a = xp.a - xm.a, dx_b = xp.b - xm.b;
  const float dy_l = yp.L - ym.L, dy_a = yp.a - ym.a, dy_b = yp.b - ym.b;
  return dx_l * dx_l + dx_a * dx_a + dx_b * dx_b + dy_l * dy_l + dy_a * dy_a +
         dy_b * dy_b;
}

/// The 3x3 argmin of `grad(x, y)` over a w x h frame around (x, y), with
/// its centre clamped so the window lies inside the image.
template <typename Grad>
Point argmin_3x3(const Grad& grad, int w, int h, int x, int y) {
  const int cx = std::clamp(x, 1, std::max(1, w - 2));
  const int cy = std::clamp(y, 1, std::max(1, h - 2));
  Point best{cx, cy};
  float best_val = grad(cx, cy);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int nx = cx + dx;
      const int ny = cy + dy;
      if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
      const float value = grad(nx, ny);
      if (value < best_val) {
        best_val = value;
        best = {nx, ny};
      }
    }
  }
  return best;
}

}  // namespace

Image<float> lab_gradient_magnitude(const LabImage& lab) {
  Image<float> grad;
  lab_gradient_magnitude(lab, grad);
  return grad;
}

void lab_gradient_magnitude(const LabImage& lab, Image<float>& grad) {
  const int w = lab.width();
  const int h = lab.height();
  if (grad.width() != w || grad.height() != h) grad = Image<float>(w, h);
  const auto at = [&](int x, int y) { return lab(x, y); };
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) grad(x, y) = gradient_at(at, w, h, x, y);
}

Image<float> sobel_magnitude(const Image<std::uint8_t>& grey) {
  const int w = grey.width();
  const int h = grey.height();
  Image<float> grad(w, h);
  const auto view = grey.view();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const auto px = [&](int dx, int dy) {
        return static_cast<float>(view.at_clamped(x + dx, y + dy));
      };
      const float gx = (px(1, -1) + 2.0f * px(1, 0) + px(1, 1)) -
                       (px(-1, -1) + 2.0f * px(-1, 0) + px(-1, 1));
      const float gy = (px(-1, 1) + 2.0f * px(0, 1) + px(1, 1)) -
                       (px(-1, -1) + 2.0f * px(0, -1) + px(1, -1));
      grad(x, y) = std::sqrt(gx * gx + gy * gy);
    }
  }
  return grad;
}

Point argmin_gradient_3x3(const Image<float>& gradient, int x, int y) {
  return argmin_3x3([&](int px, int py) { return gradient(px, py); },
                    gradient.width(), gradient.height(), x, y);
}

Point argmin_gradient_3x3(const LabPlanes& planes, int x, int y) {
  const int w = planes.width();
  const int h = planes.height();
  // Every pixel the probes' gradients read lies in the image and within 2
  // of argmin_3x3's clamped centre, so one 5x5 patch around that centre
  // (clamped reads, one column position each) answers all of them.
  const int cx = std::clamp(x, 1, std::max(1, w - 2));
  const int cy = std::clamp(y, 1, std::max(1, h - 2));
  const SubsetMajorRow layout{w, planes.stride};
  LabF patch[5][5];
  for (int j = 0; j < 5; ++j) {
    const int pos = layout.position(std::clamp(cx + j - 2, 0, w - 1));
    for (int i = 0; i < 5; ++i) {
      const int py = std::clamp(cy + i - 2, 0, h - 1);
      patch[i][j] = {planes.L(pos, py), planes.a(pos, py), planes.b(pos, py)};
    }
  }
  const auto at = [&](int px, int py) {
    return patch[py - cy + 2][px - cx + 2];
  };
  return argmin_3x3(
      [&](int px, int py) { return gradient_at(at, w, h, px, py); }, w, h, x,
      y);
}

}  // namespace sslic
