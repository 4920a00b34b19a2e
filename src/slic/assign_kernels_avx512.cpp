// AVX-512 backend: 8 f64 lanes / 16 i32 lanes using the Skylake-SP subset
// (F+BW+DQ+VL — detection in common/simd.cpp requires all four). This TU
// is the only code in the binary compiled with -mavx512*; dispatch never
// selects it unless the CPU reports the full feature set at runtime, so no
// AVX-512 instruction can execute on an older machine. Comparisons produce
// opmask registers (__mmask8/__mmask16) natively — select_* are single
// masked blends, and select_lab needs no f64->i32 mask compression like
// AVX2 does. -ffp-contract=off keeps the multiply/add sequence identical
// to the scalar reference (no FMA even though the ISA has it).
#include <immintrin.h>

// GCC's maskless AVX-512 intrinsics expand to masked forms seeded with
// _mm512_undefined_*(), which trips -Wmaybe-uninitialized (GCC PR 105593).
// The shared template is warning-checked in every other backend TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "slic/assign_kernels_impl.h"

namespace sslic::kernels {
namespace {

struct Avx512Backend {
  static constexpr int kLanesF64 = 8;
  static constexpr int kLanesI32 = 16;
  using VD = __m512d;
  using VL = __m256i;  // 8 labels
  using MD = __mmask8;
  using VI = __m512i;
  using MI = __mmask16;

  static VD load_f32(const float* p) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  }
  static VD load_i32_f64(const std::int32_t* p) {
    return _mm512_cvtepi32_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static VD loadu_f64(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu_f64(double* p, VD v) { _mm512_storeu_pd(p, v); }
  static VD set1_f64(double v) { return _mm512_set1_pd(v); }
  static VD iota_f64(double base) {
    return _mm512_add_pd(
        _mm512_set1_pd(base),
        _mm512_setr_pd(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0));
  }
  static VD add(VD a, VD b) { return _mm512_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm512_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm512_mul_pd(a, b); }
  static MD cmplt_f64(VD a, VD b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static VD select_f64(MD m, VD a, VD b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
  static VL loadu_lab(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu_lab(std::int32_t* p, VL v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static VL set1_lab(std::int32_t v) { return _mm256_set1_epi32(v); }
  static VL select_lab(MD m, VL a, VL b) {
    return _mm256_mask_blend_epi32(m, b, a);
  }
  static MD mask_f64_from_bytes(const std::uint8_t* p) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return static_cast<MD>(
        _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128()) & 0xff);
  }

  static VI load_u8_i32(const std::uint8_t* p) {
    return _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static VI loadu_i32(const std::int32_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void storeu_i32(std::int32_t* p, VI v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static VI set1_i32(std::int32_t v) { return _mm512_set1_epi32(v); }
  static VI iota_i32(std::int32_t base) {
    return _mm512_add_epi32(
        _mm512_set1_epi32(base),
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15));
  }
  static VI add_i32(VI a, VI b) { return _mm512_add_epi32(a, b); }
  static VI sub_i32(VI a, VI b) { return _mm512_sub_epi32(a, b); }
  static VI mul_i32(VI a, VI b) { return _mm512_mullo_epi32(a, b); }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    // Exact (int64)weight * v >> 8 per lane via even/odd widening products
    // (both operands non-negative, so unsigned widening is exact).
    const __m512i w = _mm512_set1_epi32(weight);
    const __m512i even = _mm512_srli_epi64(_mm512_mul_epu32(v, w), 8);
    const __m512i odd = _mm512_srli_epi64(
        _mm512_mul_epu32(_mm512_srli_epi64(v, 32), w), 8);
    return _mm512_mask_blend_epi32(static_cast<__mmask16>(0xaaaa), even,
                                   _mm512_slli_epi64(odd, 32));
  }
  static VI sra_i32(VI v, int count) {
    return _mm512_sra_epi32(v, _mm_cvtsi32_si128(count));
  }
  static VI min_i32(VI a, VI b) { return _mm512_min_epi32(a, b); }
  static MI cmplt_i32(VI a, VI b) { return _mm512_cmplt_epi32_mask(a, b); }
  static VI select_i32(MI m, VI a, VI b) {
    return _mm512_mask_blend_epi32(m, b, a);
  }
  static MI mask_i32_from_bytes(const std::uint8_t* p) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm_cmpneq_epi8_mask(bytes, _mm_setzero_si128());
  }
  static bool all_eq_i32(VI a, VI b) {
    return _mm512_cmpeq_epi32_mask(a, b) == static_cast<__mmask16>(0xffff);
  }

  static VD div(VD a, VD b) { return _mm512_div_pd(a, b); }
  static void load_rgb(const Rgb8* p, std::int32_t step, const double* gamma,
                       VD& r, VD& g, VD& b) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    if (step == 1) {
      // 8 pixels are 24 bytes: widen bytes 0..15 and 16..23 to i32, then a
      // two-source permute picks bytes c, 3+c, ..., 21+c as gather indices.
      const __m512i lo = _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
      const __m512i hi = _mm512_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + 16)));
      const auto channel = [&](int c) {
        const __m512i idx = _mm512_add_epi32(
            _mm512_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21, 0, 0, 0, 0, 0, 0, 0,
                              0),
            _mm512_set1_epi32(c));
        return _mm512_i32gather_pd(
            _mm512_castsi512_si256(_mm512_permutex2var_epi32(lo, idx, hi)),
            gamma, 8);
      };
      r = channel(0);
      g = channel(1);
      b = channel(2);
      return;
    }
    // Strided: one 32-bit gather per pixel. Lane 0 reads its pixel's bytes
    // and the next byte (inside the span, as step >= 2); every other lane
    // reads the byte before its pixel and its three bytes, then shifts the
    // extra byte out. No byte outside the span is read.
    const __m256i off = _mm256_sub_epi32(
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(3 * step)),
        _mm256_setr_epi32(0, 1, 1, 1, 1, 1, 1, 1));
    const __m256i rgb = _mm256_srlv_epi32(
        _mm256_mask_i32gather_epi32(_mm256_setzero_si256(),
                                    reinterpret_cast<const int*>(bytes), off,
                                    _mm256_set1_epi32(-1), 1),
        _mm256_setr_epi32(0, 8, 8, 8, 8, 8, 8, 8));
    const __m256i byte = _mm256_set1_epi32(0xff);
    const auto channel = [&](int c) {
      return _mm512_i32gather_pd(
          _mm256_and_si256(_mm256_srli_epi32(rgb, 8 * c), byte), gamma, 8);
    };
    r = channel(0);
    g = channel(1);
    b = channel(2);
  }
  static VD mantissa(VD t) {
    return _mm512_castsi512_pd(_mm512_or_si512(
        _mm512_and_si512(_mm512_castpd_si512(t),
                         _mm512_set1_epi64(kF64MantissaBits)),
        _mm512_set1_epi64(kF64HalfExponent)));
  }
  static VD exponent_lookup(VD t, const double* table) {
    // vpermpd reads only the low 3 bits of each index.
    return _mm512_permutexvar_pd(_mm512_srli_epi64(_mm512_castpd_si512(t), 52),
                                 _mm512_loadu_pd(table));
  }
  static void store_f32(float* p, VD v) {
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(v));
  }
};

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table = make_table<Avx512Backend>();
  return table;
}

}  // namespace sslic::kernels
