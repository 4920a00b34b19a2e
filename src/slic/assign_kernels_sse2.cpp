// SSE2 backend: 2 f64 lanes / 4 i32 lanes. Baseline x86-64 — no SSE4.1,
// so 32-bit multiply low, 32-bit min, and blends are composed from SSE2
// primitives (widening _mm_mul_epu32 pairs, compare + and/andnot/or). The
// low 32 bits of a product are sign-agnostic, and the Q8 spatial weighting
// multiplies two non-negative operands, so the unsigned widening multiply
// reproduces the scalar int64 arithmetic exactly.
#include <emmintrin.h>

#include <cstring>

#include "slic/assign_kernels_impl.h"

namespace sslic::kernels {
namespace {

struct Sse2Backend {
  static constexpr int kLanesF64 = 2;
  static constexpr int kLanesI32 = 4;
  using VD = __m128d;
  using VL = __m128i;  // 2 labels in the low 64 bits
  using MD = __m128d;
  using VI = __m128i;
  using MI = __m128i;

  static VD load_f32(const float* p) {
    __m128 f = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    return _mm_cvtps_pd(f);
  }
  static VD load_i32_f64(const std::int32_t* p) {
    return _mm_cvtepi32_pd(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static VD loadu_f64(const double* p) { return _mm_loadu_pd(p); }
  static void storeu_f64(double* p, VD v) { _mm_storeu_pd(p, v); }
  static VD set1_f64(double v) { return _mm_set1_pd(v); }
  static VD iota_f64(double base) {
    return _mm_add_pd(_mm_set1_pd(base), _mm_setr_pd(0.0, 1.0));
  }
  static VD add(VD a, VD b) { return _mm_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm_mul_pd(a, b); }
  static MD cmplt_f64(VD a, VD b) { return _mm_cmplt_pd(a, b); }
  static VD select_f64(MD m, VD a, VD b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static VL loadu_lab(const std::int32_t* p) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu_lab(std::int32_t* p, VL v) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
  }
  static VL set1_lab(std::int32_t v) { return _mm_set1_epi32(v); }
  static VL select_lab(MD m, VL a, VL b) {
    // Compress the two 64-bit f64 mask lanes to two 32-bit label lanes.
    const __m128i m32 =
        _mm_shuffle_epi32(_mm_castpd_si128(m), _MM_SHUFFLE(3, 3, 2, 0));
    return _mm_or_si128(_mm_and_si128(m32, a), _mm_andnot_si128(m32, b));
  }
  static MD mask_f64_from_bytes(const std::uint8_t* p) {
    return _mm_castsi128_pd(
        _mm_set_epi64x(p[1] != 0 ? -1 : 0, p[0] != 0 ? -1 : 0));
  }

  static VI load_u8_i32(const std::uint8_t* p) {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m128i zero = _mm_setzero_si128();
    const __m128i bytes =
        _mm_cvtsi32_si128(static_cast<int>(packed));
    return _mm_unpacklo_epi16(_mm_unpacklo_epi8(bytes, zero), zero);
  }
  static VI loadu_i32(const std::int32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu_i32(std::int32_t* p, VI v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static VI set1_i32(std::int32_t v) { return _mm_set1_epi32(v); }
  static VI iota_i32(std::int32_t base) {
    return _mm_add_epi32(_mm_set1_epi32(base), _mm_setr_epi32(0, 1, 2, 3));
  }
  static VI add_i32(VI a, VI b) { return _mm_add_epi32(a, b); }
  static VI sub_i32(VI a, VI b) { return _mm_sub_epi32(a, b); }
  static VI mul_i32(VI a, VI b) {
    // mullo via widening even/odd products (low 32 bits are sign-agnostic).
    const __m128i even = _mm_mul_epu32(a, b);
    const __m128i odd =
        _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32));
    return _mm_unpacklo_epi32(
        _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
        _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
  }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    // Exact (int64)weight * v >> 8 per lane: both operands non-negative,
    // so the unsigned widening multiply matches the signed scalar product.
    const __m128i w = _mm_set1_epi32(weight);
    const __m128i even = _mm_srli_epi64(_mm_mul_epu32(v, w), 8);
    const __m128i odd =
        _mm_srli_epi64(_mm_mul_epu32(_mm_srli_epi64(v, 32), w), 8);
    return _mm_unpacklo_epi32(
        _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
        _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
  }
  static VI sra_i32(VI v, int count) {
    return _mm_sra_epi32(v, _mm_cvtsi32_si128(count));
  }
  static VI min_i32(VI a, VI b) {
    const __m128i m = _mm_cmplt_epi32(a, b);
    return select_i32(m, a, b);
  }
  static MI cmplt_i32(VI a, VI b) { return _mm_cmplt_epi32(a, b); }
  static VI select_i32(MI m, VI a, VI b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  }
  static MI mask_i32_from_bytes(const std::uint8_t* p) {
    return _mm_cmpgt_epi32(load_u8_i32(p), _mm_setzero_si128());
  }
  static bool all_eq_i32(VI a, VI b) {
    return _mm_movemask_epi8(_mm_cmpeq_epi32(a, b)) == 0xFFFF;
  }

  static VD div(VD a, VD b) { return _mm_div_pd(a, b); }
  static void load_rgb(const Rgb8* p, std::int32_t step, const double* gamma,
                       VD& r, VD& g, VD& b) {
    const Rgb8& p0 = p[0];
    const Rgb8& p1 = p[step];
    r = _mm_setr_pd(gamma[p0.r], gamma[p1.r]);
    g = _mm_setr_pd(gamma[p0.g], gamma[p1.g]);
    b = _mm_setr_pd(gamma[p0.b], gamma[p1.b]);
  }
  static VD mantissa(VD t) {
    return _mm_or_pd(
        _mm_and_pd(t, _mm_castsi128_pd(_mm_set1_epi64x(kF64MantissaBits))),
        _mm_castsi128_pd(_mm_set1_epi64x(kF64HalfExponent)));
  }
  static VD exponent_lookup(VD t, const double* table) {
    std::uint64_t bits[2] = {};
    std::memcpy(bits, &t, sizeof(bits));
    return _mm_setr_pd(table[(bits[0] >> 52) & 7], table[(bits[1] >> 52) & 7]);
  }
  static void store_f32(float* p, VD v) {
    _mm_storel_pi(reinterpret_cast<__m64*>(p), _mm_cvtpd_ps(v));
  }
};

}  // namespace

const KernelTable& sse2_table() {
  static const KernelTable table = make_table<Sse2Backend>();
  return table;
}

}  // namespace sslic::kernels
