// Shared template implementation of the assignment kernels, instantiated
// once per ISA backend (assign_kernels_{scalar,sse2,avx2,neon}.cpp). One
// algorithm definition for every backend guarantees the operation sequence
// — and therefore the bit pattern of every result — cannot drift between
// the scalar reference and the vector paths.
//
// A backend `B` provides:
//   kLanesF64 / kLanesI32   lane counts of the f64 / i32 paths
//   VD / VL / MD            f64 vector, label (i32) vector with kLanesF64
//                           lanes, f64 comparison mask
//   VI / MI                 i32 vector with kLanesI32 lanes and its mask
//   f64 path: load_f32 (widen kLanesF64 floats to doubles), load_i32_f64
//     (widen kLanesF64 int32s to doubles), loadu_f64,
//     storeu_f64, set1_f64, iota_f64(base) = {base, base+1, ...},
//     add/sub/mul, cmplt_f64 (strict a < b), select_f64(m, a, b) = m?a:b,
//     loadu_lab/storeu_lab/set1_lab/select_lab on VL,
//     mask_f64_from_bytes (byte != 0 -> lane all-ones)
//   i32 path: load_u8_i32 (widen kLanesI32 bytes), loadu_i32, storeu_i32,
//     set1_i32, iota_i32, add_i32/sub_i32/mul_i32, mulw_shr8 (exact
//     (int64)weight * v >> 8 per lane, low 32 bits kept), sra_i32
//     (arithmetic shift by a uniform runtime count), min_i32, cmplt_i32,
//     select_i32, mask_i32_from_bytes, all_eq_i32 (every lane of a equals
//     the corresponding lane of b).
//   conversion path (kLanesF64 pixels): div, load_rgb(p, step, gamma, r,
//     g, b) (looks the r, g, b channels of pixels p[0], p[step], ...,
//     p[step * (kLanesF64 - 1)] up in the 256-entry gamma table, reading
//     no byte outside that span), mantissa (frexp's xm in [0.5, 1) of a
//     positive normal), exponent_lookup(t, table) = table[biased exponent
//     of t mod 8], store_f32 (narrow kLanesF64 doubles to consecutive
//     floats).
//
// The distance arithmetic mirrors DistanceCalculator::squared and
// HwSlic::integer_distance term for term:
//   dc2 = ((dl*dl) + (da*da)) + (db*db)
//   ds2 = (dx*dx) + (dy*dy)
//   d   = dc2 + w * ds2              (f64)   /   dc2 + ((w * ds2) >> 8) (i32)
// Plain mul/add only — the per-ISA TUs compile with -ffp-contract=off so
// neither the scalar instantiation nor any fallback code path is fused.
// Vector-width blocks process kLanes pixels; the remainder re-enters the
// same template with the scalar backend, so tails of every length produce
// the same bytes as a full-width lane would.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "color/color_convert.h"
#include "slic/assign_kernels.h"

namespace sslic::kernels {

/// IEEE double bit masks of the conversion path's frexp: the mantissa
/// field, and the biased exponent of 0.5 (so mantissa | it is in [0.5, 1)).
inline constexpr std::uint64_t kF64MantissaBits = (std::uint64_t{1} << 52) - 1;
inline constexpr std::uint64_t kF64HalfExponent = std::uint64_t{0x3fe} << 52;

/// The scalar backend: one lane, plain C++ arithmetic. Also the tail
/// handler of every vector backend.
struct ScalarBackend {
  static constexpr int kLanesF64 = 1;
  static constexpr int kLanesI32 = 1;
  using VD = double;
  using VL = std::int32_t;
  using MD = bool;
  using VI = std::int32_t;
  using MI = bool;

  static VD load_f32(const float* p) { return static_cast<double>(*p); }
  static VD load_i32_f64(const std::int32_t* p) {
    return static_cast<double>(*p);
  }
  static VD loadu_f64(const double* p) { return *p; }
  static void storeu_f64(double* p, VD v) { *p = v; }
  static VD set1_f64(double v) { return v; }
  static VD iota_f64(double base) { return base; }
  static VD add(VD a, VD b) { return a + b; }
  static VD sub(VD a, VD b) { return a - b; }
  static VD mul(VD a, VD b) { return a * b; }
  static MD cmplt_f64(VD a, VD b) { return a < b; }
  static VD select_f64(MD m, VD a, VD b) { return m ? a : b; }
  static VL loadu_lab(const std::int32_t* p) { return *p; }
  static void storeu_lab(std::int32_t* p, VL v) { *p = v; }
  static VL set1_lab(std::int32_t v) { return v; }
  static VL select_lab(MD m, VL a, VL b) { return m ? a : b; }
  static MD mask_f64_from_bytes(const std::uint8_t* p) { return *p != 0; }

  static VI load_u8_i32(const std::uint8_t* p) {
    return static_cast<std::int32_t>(*p);
  }
  static VI loadu_i32(const std::int32_t* p) { return *p; }
  static void storeu_i32(std::int32_t* p, VI v) { *p = v; }
  static VI set1_i32(std::int32_t v) { return v; }
  static VI iota_i32(std::int32_t base) { return base; }
  static VI add_i32(VI a, VI b) { return a + b; }
  static VI sub_i32(VI a, VI b) { return a - b; }
  static VI mul_i32(VI a, VI b) { return a * b; }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    return static_cast<std::int32_t>(
        (static_cast<std::int64_t>(weight) * v) >> 8);
  }
  static VI sra_i32(VI v, int count) { return v >> count; }
  static VI min_i32(VI a, VI b) { return a < b ? a : b; }
  static MI cmplt_i32(VI a, VI b) { return a < b; }
  static VI select_i32(MI m, VI a, VI b) { return m ? a : b; }
  static MI mask_i32_from_bytes(const std::uint8_t* p) { return *p != 0; }
  static bool all_eq_i32(VI a, VI b) { return a == b; }

  static VD div(VD a, VD b) { return a / b; }
  static void load_rgb(const Rgb8* p, std::int32_t /*step*/,
                       const double* gamma, VD& r, VD& g, VD& b) {
    r = gamma[p->r];
    g = gamma[p->g];
    b = gamma[p->b];
  }
  static VD mantissa(VD t) {
    const auto bits = std::bit_cast<std::uint64_t>(t);
    return std::bit_cast<double>((bits & kF64MantissaBits) | kF64HalfExponent);
  }
  static VD exponent_lookup(VD t, const double* table) {
    return table[(std::bit_cast<std::uint64_t>(t) >> 52) & 7];
  }
  static void store_f32(float* p, VD v) { *p = static_cast<float>(v); }
};

template <typename B>
void assign_center_row_impl(const float* L, const float* a, const float* b,
                            std::int32_t x0, std::int32_t count, double y,
                            const CenterOperand& center, double spatial_weight,
                            double* min_dist, std::int32_t* labels) {
  constexpr std::int32_t kL = B::kLanesF64;
  const auto cl = B::set1_f64(center.L);
  const auto ca = B::set1_f64(center.a);
  const auto cb = B::set1_f64(center.b);
  const auto cx = B::set1_f64(center.x);
  const auto w = B::set1_f64(spatial_weight);
  const auto idx = B::set1_lab(center.index);
  // dy is the same for the whole row; computing it once per row is the
  // identical IEEE operation the scalar code performs per pixel.
  const auto dy = B::sub(B::set1_f64(y), B::set1_f64(center.y));
  const auto dy2 = B::mul(dy, dy);

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const auto dl = B::sub(B::load_f32(L + i), cl);
    const auto da = B::sub(B::load_f32(a + i), ca);
    const auto db = B::sub(B::load_f32(b + i), cb);
    const auto dx = B::sub(B::iota_f64(static_cast<double>(x0 + i)), cx);
    const auto dc2 =
        B::add(B::add(B::mul(dl, dl), B::mul(da, da)), B::mul(db, db));
    const auto ds2 = B::add(B::mul(dx, dx), dy2);
    const auto d = B::add(dc2, B::mul(w, ds2));
    const auto cur = B::loadu_f64(min_dist + i);
    const auto m = B::cmplt_f64(d, cur);
    B::storeu_f64(min_dist + i, B::select_f64(m, d, cur));
    const auto lab = B::loadu_lab(labels + i);
    B::storeu_lab(labels + i, B::select_lab(m, idx, lab));
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_center_row_impl<ScalarBackend>(L + i, a + i, b + i, x0 + i,
                                            count - i, y, center,
                                            spatial_weight, min_dist + i,
                                            labels + i);
    }
  }
}

// Row-wide PPA assignment (DESIGN.md §4e). Pixel i's 9 candidates are the
// centers of grid columns cols[i]-1, cols[i], cols[i]+1 (clamped) in rows
// gy-1, gy, gy+1 — col_ops[3*g + r] — visited dy-major, column-ascending:
// the order build_candidate_map lists them in. A vector block whose lanes
// all sit in one column evaluates exactly those candidates (minus the
// clamped duplicates, which can never win a strict `<` against their equal
// twin). A block that spans columns g_lo..g_hi walks the union
// g_lo-1..g_hi+1 in the same dy-major, column-ascending order and adds
// +0.0 to the distance of each lane's own candidates and +inf to the rest.
// d + 0.0 == d (d is a sum of squares, never -0.0), and an infinite
// distance never passes the strict `<`, so each lane sees its own
// candidates' distances in its own slot order: labels equal a per-pixel
// walk of the cell's candidate list, ties included. Lanes whose columns
// spread over more than kL + 2 union columns (cells narrower than the lane
// spacing) fall back to the per-lane scalar path.
template <typename B>
void assign_candidates_row_impl(const float* L, const float* a, const float* b,
                                const std::int32_t* cols, std::int32_t x0,
                                std::int32_t x_step, std::int32_t count,
                                double y, const CenterOperand* col_ops,
                                std::int32_t ncols, double spatial_weight,
                                const std::uint8_t* active,
                                std::int32_t* labels) {
  using VD = typename B::VD;
  constexpr std::int32_t kL = B::kLanesF64;
  constexpr std::int32_t kMaxUnion = kL + 2;
  const auto w = B::set1_f64(spatial_weight);
  const auto zero = B::set1_f64(0.0);
  const auto inf = B::set1_f64(std::numeric_limits<double>::infinity());
  const auto two = B::set1_f64(2.0);
  // Lane j of a block starting at pixel i sits at column x0 + x_step*(i+j):
  // integers far below 2^53, so every lane's x is the exact double the
  // scalar reference converts.
  const auto lane_dx =
      B::mul(B::set1_f64(static_cast<double>(x_step)), B::iota_f64(0.0));

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const std::int32_t g_lo = cols[i];
    const std::int32_t g_hi = cols[i + kL - 1];
    const std::int32_t c_lo = g_lo > 0 ? g_lo - 1 : 0;
    const std::int32_t c_hi = g_hi + 1 < ncols ? g_hi + 1 : ncols - 1;
    if constexpr (kL > 1) {
      if (c_hi - c_lo + 1 > kMaxUnion) {
        assign_candidates_row_impl<ScalarBackend>(
            L + i, a + i, b + i, cols + i, x0 + x_step * i, x_step, kL, y,
            col_ops, ncols, spatial_weight,
            active == nullptr ? nullptr : active + i, labels + i);
        continue;
      }
    }
    const auto pl = B::load_f32(L + i);
    const auto pa = B::load_f32(a + i);
    const auto pb = B::load_f32(b + i);
    const auto xv =
        B::add(B::set1_f64(static_cast<double>(x0 + x_step * i)), lane_dx);
    const auto distance = [&](const CenterOperand& c) {
      const auto dl = B::sub(pl, B::set1_f64(c.L));
      const auto da = B::sub(pa, B::set1_f64(c.a));
      const auto db = B::sub(pb, B::set1_f64(c.b));
      const auto dx = B::sub(xv, B::set1_f64(c.x));
      // dy is uniform across the row: the scalar product is the same IEEE
      // operation every lane would perform.
      const double dy = y - c.y;
      const auto dc2 =
          B::add(B::add(B::mul(dl, dl), B::mul(da, da)), B::mul(db, db));
      const auto ds2 = B::add(B::mul(dx, dx), B::set1_f64(dy * dy));
      return B::add(dc2, B::mul(w, ds2));
    };
    auto best = inf;
    auto best_idx = B::set1_lab(col_ops[3 * c_lo].index);
    const auto consider = [&](VD d, std::int32_t index) {
      const auto m = B::cmplt_f64(d, best);
      best = B::select_f64(m, d, best);
      best_idx = B::select_lab(m, B::set1_lab(index), best_idx);
    };
    if (g_lo == g_hi) {
      for (std::int32_t r = 0; r < 3; ++r) {
        for (std::int32_t c = c_lo; c <= c_hi; ++c) {
          const CenterOperand& op = col_ops[3 * c + r];
          consider(distance(op), op.index);
        }
      }
    } else {
      // Penalty per union column: +0.0 where |column - lane column| <= 1,
      // +inf elsewhere (the difference is an exact small integer, so its
      // square is 0 or 1 exactly when the column is a lane candidate).
      const auto lane_col = B::load_i32_f64(cols + i);
      VD penalty[static_cast<std::size_t>(kMaxUnion)];
      for (std::int32_t c = c_lo; c <= c_hi; ++c) {
        const auto diff =
            B::sub(lane_col, B::set1_f64(static_cast<double>(c)));
        penalty[c - c_lo] =
            B::select_f64(B::cmplt_f64(B::mul(diff, diff), two), zero, inf);
      }
      for (std::int32_t r = 0; r < 3; ++r) {
        for (std::int32_t c = c_lo; c <= c_hi; ++c) {
          const CenterOperand& op = col_ops[3 * c + r];
          consider(B::add(distance(op), penalty[c - c_lo]), op.index);
        }
      }
    }
    if (active == nullptr) {
      B::storeu_lab(labels + i, best_idx);
    } else {
      const auto am = B::mask_f64_from_bytes(active + i);
      B::storeu_lab(labels + i,
                    B::select_lab(am, best_idx, B::loadu_lab(labels + i)));
    }
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_candidates_row_impl<ScalarBackend>(
          L + i, a + i, b + i, cols + i, x0 + x_step * i, x_step, count - i, y,
          col_ops, ncols, spatial_weight,
          active == nullptr ? nullptr : active + i, labels + i);
    }
  }
}

template <typename B>
void assign_candidates_row_u8_impl(
    const std::uint8_t* L, const std::uint8_t* a, const std::uint8_t* b,
    std::int32_t x0, std::int32_t count, std::int32_t y,
    const HwCenterOperand* cands, std::int32_t ncand, std::int32_t weight_q8,
    std::int32_t dist_bits, std::int32_t dist_shift,
    const std::uint8_t* active, std::int32_t* labels) {
  constexpr std::int32_t kL = B::kLanesI32;
  const auto max_quant =
      B::set1_i32(dist_bits != 0 ? (std::int32_t{1} << dist_bits) - 1 : 0);

  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    const auto pl = B::load_u8_i32(L + i);
    const auto pa = B::load_u8_i32(a + i);
    const auto pb = B::load_u8_i32(b + i);
    const auto xv = B::iota_i32(x0 + i);
    auto best = B::set1_i32(std::numeric_limits<std::int32_t>::max());
    auto best_idx = B::set1_i32(cands[0].index);
    for (std::int32_t k = 0; k < ncand; ++k) {
      const HwCenterOperand& c = cands[k];
      const auto dl = B::sub_i32(pl, B::set1_i32(c.L));
      const auto da = B::sub_i32(pa, B::set1_i32(c.a));
      const auto db = B::sub_i32(pb, B::set1_i32(c.b));
      const auto dx = B::sub_i32(xv, B::set1_i32(c.x));
      const std::int32_t dy = y - c.y;
      const auto dc2 = B::add_i32(
          B::add_i32(B::mul_i32(dl, dl), B::mul_i32(da, da)),
          B::mul_i32(db, db));
      const auto ds2 =
          B::add_i32(B::mul_i32(dx, dx), B::set1_i32(dy * dy));
      auto d = B::add_i32(dc2, B::mulw_shr8(ds2, weight_q8));
      if (dist_bits != 0) {
        d = B::min_i32(B::sra_i32(d, dist_shift), max_quant);
      }
      const auto m = B::cmplt_i32(d, best);
      best = B::select_i32(m, d, best);
      best_idx = B::select_i32(m, B::set1_i32(c.index), best_idx);
    }
    if (active == nullptr) {
      B::storeu_i32(labels + i, best_idx);
    } else {
      const auto am = B::mask_i32_from_bytes(active + i);
      B::storeu_i32(labels + i,
                    B::select_i32(am, best_idx, B::loadu_i32(labels + i)));
    }
  }
  if constexpr (kL > 1) {
    if (i < count) {
      assign_candidates_row_u8_impl<ScalarBackend>(
          L + i, a + i, b + i, x0 + i, count - i, y, cands, ncand, weight_q8,
          dist_bits, dist_shift, active == nullptr ? nullptr : active + i,
          labels + i);
    }
  }
}

// Fused-iteration sigma accumulation, bit-equal to the reference per-pixel
// loop (for each pixel, in ascending order: s.L += L; s.a += a; s.b += b;
// s.x += x; s.y += y; s.count += 1). Two reorderings make it fast, neither
// of which can change a single bit:
//
//  1. Run batching. A row is a sequence of label runs (a superpixel is ~S
//     pixels wide), so the row is processed run by run with the sigma's
//     L/a/b fields held in registers for the whole run. The per-FIELD add
//     sequence — the only thing IEEE rounding depends on — is untouched:
//     field chains are independent, so interleaving across fields is free,
//     and `reg = s.L; reg += l_i...; s.L = reg` is the same chain as
//     `s.L += l_i` repeated. (f32 -> f64 widening is exact.)
//  2. Closed forms for the integer fields. x, y and count only ever hold
//     integers (well under 2^53), so every partial sum in the reference
//     loop is exact — the arithmetic-series total for x (step x_step, the
//     column stride of a subset-major run), y*len, and count+len are the
//     same doubles the per-pixel adds produce.
//
// The summation itself — three dependent double-add chains per run — is
// latency-bound, not throughput-bound, so SIMD widening doesn't pay there.
// What the vector backends do accelerate is finding the run END: the label
// scan compares kLanesI32 labels per step (all_eq_i32 against the splat)
// instead of one, which removes the ~1 cycle/pixel scalar scan from the
// critical path. The scan only locates boundaries — the pixels summed and
// their order are unchanged, so the output stays bit-identical.
template <typename B>
void accumulate_row_impl(const float* L, const float* a, const float* b,
                         std::int32_t x0, std::int32_t x_step,
                         std::int32_t count, std::int32_t y,
                         const std::int32_t* labels, Sigma* sigmas) {
  constexpr std::int32_t kL = B::kLanesI32;
  const double yd = static_cast<double>(y);
  std::int32_t i = 0;
  while (i < count) {
    const std::int32_t label = labels[i];
    std::int32_t j = i + 1;
    if constexpr (kL > 1) {
      const auto lv = B::set1_i32(label);
      while (j + kL <= count && B::all_eq_i32(B::loadu_i32(labels + j), lv))
        j += kL;
    }
    while (j < count && labels[j] == label) ++j;
    Sigma& s = sigmas[static_cast<std::size_t>(label)];
    double sl = s.L;
    double sa = s.a;
    double sb = s.b;
    for (std::int32_t k = i; k < j; ++k) {
      sl += static_cast<double>(L[k]);
      sa += static_cast<double>(a[k]);
      sb += static_cast<double>(b[k]);
    }
    s.L = sl;
    s.a = sa;
    s.b = sb;
    // Arithmetic series first, first + x_step, ..., last. The product
    // (first + last) * len is even (len is, or else len - 1 is and so is
    // first + last), so the halving is exact.
    const std::int64_t step = x_step;
    const std::int64_t len = j - i;
    const std::int64_t first = x0 + step * i;
    const std::int64_t last = first + step * (len - 1);
    s.x += static_cast<double>((first + last) * len / 2);
    s.y += yd * static_cast<double>(len);
    s.count += static_cast<std::uint64_t>(len);
    i = j;
  }
}

// Exact vector sRGB -> CIELAB (DESIGN.md §4c). The reference lab_f takes
// the cube root as glibc does: xm = frexp(t, &xe), a polynomial and one
// Halley-style step in xm, then ldexp(ym * factor[2 + xe%3], xe/3).
// Lanes cannot index tables or branch, so:
//   * frexp is exponent-bit arithmetic (mantissa());
//   * the two exponent-dependent scales fold into one: multiplying by
//     factor * 2^(xe/3) rounds exactly like multiplying by factor and then
//     scaling by a power of two, because power-of-two scaling is exact at
//     these magnitudes. t > kLabEpsilon > 2^-7 and t < 2 give xe in
//     [-6, 1], eight values whose biased exponents 1016..1023 are distinct
//     mod 8, so the scale is one 8-entry lookup on the exponent's low bits;
//   * both sides of lab_f's branch are computed and blended. Lanes on the
//     linear side (t = 0 included) run the cube root on garbage that the
//     blend discards; the lookup is masked to 8 entries, so it stays in
//     bounds for every input.
// Everything else is the reference's operation sequence. y / Yr is
// omitted because Yr == 1.0 makes the division an exact identity.
// tests/test_color.cpp checks every backend against srgb_to_lab(Rgb8) on
// all 2^24 colours.
inline constexpr std::array<double, 8> kCbrtScale = [] {
  std::array<double, 8> scale{};
  for (int k = 0; k < 8; ++k) {
    const int xe = k - 6;  // biased exponent 1016 + k
    double s = kCbrtFactor[static_cast<std::size_t>(2 + xe % 3)];
    for (int q = xe / 3; q < 0; ++q) s *= 0.5;
    scale[static_cast<std::size_t>(k)] = s;
  }
  return scale;
}();
static_assert(kReferenceWhite[1] == 1.0, "srgb_to_lab_row skips y / Yr");
// The backends address pixels as packed bytes.
static_assert(sizeof(Rgb8) == 3);

template <typename B>
typename B::VD lab_f_impl(typename B::VD t) {
  const auto xm = B::mantissa(t);
  auto p = B::sub(B::set1_f64(kCbrtPoly[5]),
                  B::mul(B::set1_f64(kCbrtPoly[6]), xm));
  for (int k = 4; k >= 0; --k)
    p = B::add(B::set1_f64(kCbrtPoly[static_cast<std::size_t>(k)]),
               B::mul(p, xm));
  const auto u = p;
  const auto t2 = B::mul(B::mul(u, u), u);
  const auto two = B::set1_f64(2.0);
  const auto ym = B::div(B::mul(u, B::add(t2, B::mul(two, xm))),
                         B::add(B::mul(two, t2), xm));
  const auto root = B::mul(ym, B::exponent_lookup(t, kCbrtScale.data()));
  const auto linear =
      B::div(B::add(B::mul(B::set1_f64(kLabKappa), t), B::set1_f64(16.0)),
             B::set1_f64(116.0));
  return B::select_f64(B::cmplt_f64(B::set1_f64(kLabEpsilon), t), root,
                       linear);
}

template <typename B>
void srgb_to_lab_row_impl(const Rgb8* rgb, std::int32_t x_step,
                          std::int32_t count, const double* gamma, float* L,
                          float* a, float* b) {
  constexpr std::int32_t kL = B::kLanesF64;
  const auto step = static_cast<std::ptrdiff_t>(x_step);
  std::int32_t i = 0;
  for (; i + kL <= count; i += kL) {
    typename B::VD red, green, blue;
    B::load_rgb(rgb + step * i, x_step, gamma, red, green, blue);
    const auto row = [&](std::size_t m) {
      return B::add(B::add(B::mul(B::set1_f64(kSrgbToXyz[m]), red),
                           B::mul(B::set1_f64(kSrgbToXyz[m + 1]), green)),
                    B::mul(B::set1_f64(kSrgbToXyz[m + 2]), blue));
    };
    const auto fx =
        lab_f_impl<B>(B::div(row(0), B::set1_f64(kReferenceWhite[0])));
    const auto fy = lab_f_impl<B>(row(3));
    const auto fz =
        lab_f_impl<B>(B::div(row(6), B::set1_f64(kReferenceWhite[2])));
    B::store_f32(L + i,
                 B::sub(B::mul(B::set1_f64(116.0), fy), B::set1_f64(16.0)));
    B::store_f32(a + i, B::mul(B::set1_f64(500.0), B::sub(fx, fy)));
    B::store_f32(b + i, B::mul(B::set1_f64(200.0), B::sub(fy, fz)));
  }
  if constexpr (kL > 1) {
    if (i < count)
      srgb_to_lab_row_impl<ScalarBackend>(rgb + step * i, x_step, count - i,
                                          gamma, L + i, a + i, b + i);
  }
}

/// Builds one backend's dispatch table from the template instantiations.
template <typename B>
KernelTable make_table() {
  return KernelTable{&assign_center_row_impl<B>, &assign_candidates_row_impl<B>,
                     &assign_candidates_row_u8_impl<B>, &accumulate_row_impl<B>,
                     &srgb_to_lab_row_impl<B>};
}

}  // namespace sslic::kernels
