#include "image/planar.h"

namespace sslic {

LabPlanes split_lab_planes(const LabImage& lab) {
  LabPlanes planes;
  split_lab_planes(lab, planes);
  return planes;
}

void split_lab_planes(const LabImage& lab, LabPlanes& planes, int stride) {
  const int w = lab.width();
  const int h = lab.height();
  if (planes.width() != w || planes.height() != h) planes = LabPlanes(w, h);
  planes.stride = stride;
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
