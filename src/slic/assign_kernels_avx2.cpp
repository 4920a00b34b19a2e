// AVX2 backend: 4 f64 lanes / 8 i32 lanes. This TU is the only code in the
// binary compiled with -mavx2; dispatch never selects it unless the CPU
// reports AVX2 at runtime (common/simd.cpp), so no AVX instruction can
// execute on an older machine. -ffp-contract=off keeps the multiply/add
// sequence identical to the scalar reference (no FMA even though the ISA
// has it).
#include <immintrin.h>

#include <cstring>

#include "slic/assign_kernels_impl.h"

namespace sslic::kernels {
namespace {

struct Avx2Backend {
  static constexpr int kLanesF64 = 4;
  static constexpr int kLanesI32 = 8;
  using VD = __m256d;
  using VL = __m128i;  // 4 labels
  using MD = __m256d;
  using VI = __m256i;
  using MI = __m256i;

  static VD load_f32(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static VD load_i32_f64(const std::int32_t* p) {
    return _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static VD loadu_f64(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu_f64(double* p, VD v) { _mm256_storeu_pd(p, v); }
  static VD set1_f64(double v) { return _mm256_set1_pd(v); }
  static VD iota_f64(double base) {
    return _mm256_add_pd(_mm256_set1_pd(base),
                         _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
  }
  static VD add(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD sub(VD a, VD b) { return _mm256_sub_pd(a, b); }
  static VD mul(VD a, VD b) { return _mm256_mul_pd(a, b); }
  static MD cmplt_f64(VD a, VD b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static VD select_f64(MD m, VD a, VD b) { return _mm256_blendv_pd(b, a, m); }
  static VL loadu_lab(const std::int32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu_lab(std::int32_t* p, VL v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static VL set1_lab(std::int32_t v) { return _mm_set1_epi32(v); }
  static VL select_lab(MD m, VL a, VL b) {
    // Compress the four 64-bit f64 mask lanes to four 32-bit label lanes.
    const __m256i m64 = _mm256_castpd_si256(m);
    const __m128i m32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        m64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
    return _mm_blendv_epi8(b, a, m32);
  }
  static MD mask_f64_from_bytes(const std::uint8_t* p) {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const __m256i wide = _mm256_cvtepi32_epi64(
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed))));
    return _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
  }

  static VI load_u8_i32(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static VI loadu_i32(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu_i32(std::int32_t* p, VI v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static VI set1_i32(std::int32_t v) { return _mm256_set1_epi32(v); }
  static VI iota_i32(std::int32_t base) {
    return _mm256_add_epi32(_mm256_set1_epi32(base),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static VI add_i32(VI a, VI b) { return _mm256_add_epi32(a, b); }
  static VI sub_i32(VI a, VI b) { return _mm256_sub_epi32(a, b); }
  static VI mul_i32(VI a, VI b) { return _mm256_mullo_epi32(a, b); }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    // Exact (int64)weight * v >> 8 per lane via even/odd widening products
    // (both operands non-negative, so unsigned widening is exact).
    const __m256i w = _mm256_set1_epi32(weight);
    const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(v, w), 8);
    const __m256i odd = _mm256_srli_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(v, 32), w), 8);
    return _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0b10101010);
  }
  static VI sra_i32(VI v, int count) {
    return _mm256_sra_epi32(v, _mm_cvtsi32_si128(count));
  }
  static VI min_i32(VI a, VI b) { return _mm256_min_epi32(a, b); }
  static MI cmplt_i32(VI a, VI b) { return _mm256_cmpgt_epi32(b, a); }
  static VI select_i32(MI m, VI a, VI b) {
    return _mm256_blendv_epi8(b, a, m);
  }
  static MI mask_i32_from_bytes(const std::uint8_t* p) {
    return _mm256_cmpgt_epi32(load_u8_i32(p), _mm256_setzero_si256());
  }
  static bool all_eq_i32(VI a, VI b) {
    return _mm256_movemask_epi8(_mm256_cmpeq_epi32(a, b)) == -1;
  }

  // The masked gathers with a zero source are the unmasked ones; GCC's
  // unmasked intrinsics seed from _mm256_undefined_pd(), which trips
  // -Wmaybe-uninitialized (GCC bug 105593).
  static VD all_lanes() {
    return _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  }
  static VD gather(const double* table, __m128i idx) {
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), table, idx,
                                    all_lanes(), 8);
  }

  static VD div(VD a, VD b) { return _mm256_div_pd(a, b); }
  static void load_rgb(const Rgb8* p, std::int32_t step, const double* gamma,
                       VD& r, VD& g, VD& b) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    if (step == 1) {
      // 4 pixels are 12 bytes; one byte shuffle per channel zero-extends
      // bytes c, 3+c, 6+c, 9+c into four i32 gather indices.
      std::uint32_t tail = 0;
      std::memcpy(&tail, bytes + 8, sizeof(tail));
      const __m128i v = _mm_unpacklo_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes)),
          _mm_cvtsi32_si128(static_cast<int>(tail)));
      const auto channel = [&](int c) {
        const auto k = static_cast<char>(c);
        const __m128i pick = _mm_setr_epi8(
            k, -1, -1, -1, static_cast<char>(3 + k), -1, -1, -1,
            static_cast<char>(6 + k), -1, -1, -1, static_cast<char>(9 + k),
            -1, -1, -1);
        return gather(gamma, _mm_shuffle_epi8(v, pick));
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
    const __m128i off = _mm_sub_epi32(
        _mm_mullo_epi32(_mm_setr_epi32(0, 1, 2, 3), _mm_set1_epi32(3 * step)),
        _mm_setr_epi32(0, 1, 1, 1));
    const __m128i rgb = _mm_srlv_epi32(
        _mm_mask_i32gather_epi32(_mm_setzero_si128(),
                                 reinterpret_cast<const int*>(bytes), off,
                                 _mm_set1_epi32(-1), 1),
        _mm_setr_epi32(0, 8, 8, 8));
    const __m128i byte = _mm_set1_epi32(0xff);
    const auto channel = [&](int c) {
      return gather(gamma, _mm_and_si128(_mm_srli_epi32(rgb, 8 * c), byte));
    };
    r = channel(0);
    g = channel(1);
    b = channel(2);
  }
  static VD mantissa(VD t) {
    return _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(_mm256_castpd_si256(t),
                         _mm256_set1_epi64x(kF64MantissaBits)),
        _mm256_set1_epi64x(kF64HalfExponent)));
  }
  static VD exponent_lookup(VD t, const double* table) {
    const __m256i idx = _mm256_and_si256(
        _mm256_srli_epi64(_mm256_castpd_si256(t), 52), _mm256_set1_epi64x(7));
    return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), table, idx,
                                    all_lanes(), 8);
  }
  static void store_f32(float* p, VD v) {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
};

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = make_table<Avx2Backend>();
  return table;
}

}  // namespace sslic::kernels
