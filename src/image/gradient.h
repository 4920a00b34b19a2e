// Image gradients for SLIC center perturbation (paper Section 2: each
// initial superpixel center is moved to the lowest-gradient position in its
// 3x3 neighbourhood so it does not start on an edge or a noisy pixel).
#pragma once

#include "image/image.h"
#include "image/planar.h"

namespace sslic {

/// Squared CIELAB gradient magnitude, the quantity the SLIC paper perturbs
/// on: G(x,y) = |I(x+1,y) - I(x-1,y)|^2 + |I(x,y+1) - I(x,y-1)|^2 where
/// |.| is the L2 norm over (L,a,b). Border pixels use clamped neighbours.
Image<float> lab_gradient_magnitude(const LabImage& lab);

/// In-place variant: fills `grad`, reallocating only when the dimensions
/// change (allocation-free at steady state — per-frame seeding paths).
void lab_gradient_magnitude(const LabImage& lab, Image<float>& grad);

/// Luminance Sobel gradient magnitude (utility; used by examples and the
/// dataset generator's self-checks).
Image<float> sobel_magnitude(const Image<std::uint8_t>& grey);

/// Returns the position of the minimum of `gradient` within the 3x3
/// neighbourhood of (x, y), clamped to the image interior.
struct Point {
  int x = 0;
  int y = 0;
  friend bool operator==(const Point&, const Point&) = default;
};
Point argmin_gradient_3x3(const Image<float>& gradient, int x, int y);

/// argmin_gradient_3x3(lab_gradient_magnitude(lab), x, y) for the frame
/// whose channel planes are `planes` (any planes.stride): the gradient is
/// evaluated only at the probed pixels of the clamped 3x3 neighbourhood,
/// from one 5x5 Lab patch around it, with the same float expression, so
/// the result is identical without an image-sized gradient plane.
Point argmin_gradient_3x3(const LabPlanes& planes, int x, int y);

}  // namespace sslic
