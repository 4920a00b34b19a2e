// Reference (double-precision) sRGB -> CIELAB conversion, paper Eqs. 1-4.
//
// Two transcription notes versus the paper text, both obvious typos against
// the standard sRGB/CIELAB definitions the paper cites:
//   * Eq. 1 prints (x+0.05)/1.055; the sRGB standard (and every SLIC
//     implementation) uses (x+0.055)/1.055. We implement the standard form.
//   * Eq. 3 prints b = 200*(fY - fX); the CIELAB definition is
//     b = 200*(fY - fZ). We implement the standard form.
#pragma once

#include <array>

#include "image/image.h"
#include "image/planar.h"

namespace sslic {

/// Row-major 3x3 sRGB(D65) -> XYZ matrix, the paper's M (Eq. 2).
inline constexpr std::array<double, 9> kSrgbToXyz = {
    0.4124564, 0.3575761, 0.1804375,  //
    0.2126729, 0.7151522, 0.0721750,  //
    0.0193339, 0.1191920, 0.9503041,
};

/// D65 reference white [Xr, Yr, Zr] (Eq. 4's normalizer).
inline constexpr std::array<double, 3> kReferenceWhite = {0.950456, 1.0,
                                                          1.088754};

/// CIELAB linearization threshold (Eq. 4): (6/29)^3.
inline constexpr double kLabEpsilon = 0.008856;
/// CIELAB linear-segment slope (Eq. 4): 903.3 = (29/3)^3.
inline constexpr double kLabKappa = 903.3;

/// Constants of glibc 2.36's double cube root
/// (sysdeps/ieee754/dbl-64/s_cbrt.c), which lab_f transcribes so the
/// conversion's bits do not depend on the host libm and the vector kernels
/// (slic/assign_kernels.h) can reproduce them lane by lane.
/// Polynomial in the mantissa xm in [0.5, 1), ascending powers; glibc
/// evaluates it as c0 + (c1 + (... + (c5 - c6*xm)*xm ...)*xm)*xm, so the
/// last coefficient enters with a minus sign.
inline constexpr std::array<double, 7> kCbrtPoly = {
    0.354895765043919860, 1.50819193781584896,  -2.11499494167371287,
    2.44693122563534430,  -1.83469277483613086, 0.784932344976639262,
    0.145263899385486377,
};
/// glibc's `factor` table, indexed by 2 + xe % 3 (C's truncating %):
/// {2^(-2/3), 2^(-1/3), 1, 2^(1/3), 2^(2/3)}.
inline constexpr std::array<double, 5> kCbrtFactor = {
    1.0 / 1.5874010519681994748, 1.0 / 1.2599210498948731648, 1.0,
    1.2599210498948731648, 1.5874010519681994748,
};

/// Inverse sRGB gamma (Eq. 1): maps an encoded channel in [0,1] to linear.
double srgb_inverse_gamma(double encoded);

/// CIELAB f(t) (Eq. 4) applied to an XYZ component already divided by the
/// reference white. The cube root is the kCbrtPoly transcription, equal
/// to glibc 2.36's std::cbrt on every input 8-bit sRGB produces.
double lab_f(double t);

/// The exact inverse-gamma table: entry v is srgb_inverse_gamma(v / 255.0).
const std::array<double, 256>& srgb_gamma_table();

/// Converts one 8-bit sRGB pixel to CIELAB (L in [0,100], a/b roughly
/// [-110,110]).
LabF srgb_to_lab(Rgb8 rgb);

/// Converts a full image into an interleaved Lab image (the LabImage entry
/// points, the paper benches, and the golden model for the LUT unit's
/// tests). Runs the `srgb_to_lab_row` kernel of kernels::active() over a
/// parallel_for and interleaves its planar output; every pixel is
/// bit-identical to srgb_to_lab(Rgb8) for any backend and thread count.
LabImage srgb_to_lab(const RgbImage& image);

/// In-place variant: converts into `lab`, resizing only when the
/// dimensions change. Allocation-free at steady state.
void srgb_to_lab(const RgbImage& image, LabImage& lab);

/// The frame path's conversion: converts straight into channel planes
/// whose rows are stored at SubsetMajorRow{width, stride} (image/planar.h)
/// — the layout a segmenter's kernels read (stride 1 for CpaSlic,
/// PpaSlic::stride() for PpaSlic) — with one `srgb_to_lab_row` call per
/// (row, stride phase). Sets planes.stride and resizes only when the
/// dimensions change (allocation-free at steady state). Equal bit for bit
/// to split_lab_planes(srgb_to_lab(image), planes, stride) for any backend
/// and thread count.
void srgb_to_lab(const RgbImage& image, LabPlanes& planes, int stride);

/// Inverse conversion (CIELAB -> 8-bit sRGB, channels clamped), used by the
/// dataset generator to synthesize images with prescribed Lab statistics.
Rgb8 lab_to_srgb(const LabF& lab);

}  // namespace sslic
