#include "image/planar.h"

#include "common/check.h"
#include "common/thread_pool.h"

namespace sslic {

LabPlanes split_lab_planes(const LabImage& lab) {
  LabPlanes planes;
  split_lab_planes(lab, planes);
  return planes;
}

namespace {

/// Row-parallel loop of the subset-major permutations: calls
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

}  // namespace

void split_lab_planes(const LabImage& lab, LabPlanes& planes, int stride) {
  const int w = lab.width();
  const int h = lab.height();
  if (planes.width() != w || planes.height() != h) planes = LabPlanes(w, h);
  const LabF* src = lab.data();
  float* dl = planes.L.data();
  float* da = planes.a.data();
  float* db = planes.b.data();
  const auto s = static_cast<std::size_t>(stride);
  for_each_phase_run(w, h, stride, [&](std::size_t from, std::size_t to,
                                       std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const LabF& px = src[from + k * s];
      dl[to + k] = px.L;
      da[to + k] = px.a;
      db[to + k] = px.b;
    }
  });
}

void to_subset_major(const LabelImage& natural, int stride, LabelImage& out) {
  if (out.width() != natural.width() || out.height() != natural.height())
    out = LabelImage(natural.width(), natural.height());
  const std::int32_t* src = natural.data();
  std::int32_t* dst = out.data();
  const auto s = static_cast<std::size_t>(stride);
  for_each_phase_run(natural.width(), natural.height(), stride,
                     [&](std::size_t from, std::size_t to, std::size_t count) {
                       for (std::size_t k = 0; k < count; ++k)
                         dst[to + k] = src[from + k * s];
                     });
}

void from_subset_major(const LabelImage& permuted, int stride,
                       LabelImage& natural) {
  SSLIC_CHECK(natural.width() == permuted.width() &&
              natural.height() == permuted.height());
  const std::int32_t* src = permuted.data();
  std::int32_t* dst = natural.data();
  const auto s = static_cast<std::size_t>(stride);
  for_each_phase_run(permuted.width(), permuted.height(), stride,
                     [&](std::size_t to, std::size_t from, std::size_t count) {
                       for (std::size_t k = 0; k < count; ++k)
                         dst[to + k * s] = src[from + k];
                     });
}

}  // namespace sslic
