// NEON (AArch64 Advanced SIMD) backend: 2 f64 lanes / 4 i32 lanes.
// vmulq_f64/vaddq_f64 are plain unfused IEEE operations and the TU builds
// with -ffp-contract=off, so the multiply/add sequence matches the scalar
// reference bit for bit. The widening vmull_s32 + arithmetic shift + narrow
// reproduces the scalar (int64)weight * ds2 >> 8 truncated to int32.
#include <arm_neon.h>

#include <cstring>

#include "slic/assign_kernels_impl.h"

namespace sslic::kernels {
namespace {

struct NeonBackend {
  static constexpr int kLanesF64 = 2;
  static constexpr int kLanesI32 = 4;
  using VD = float64x2_t;
  using VL = int32x2_t;  // 2 labels
  using MD = uint64x2_t;
  using VI = int32x4_t;
  using MI = uint32x4_t;

  static VD load_f32(const float* p) { return vcvt_f64_f32(vld1_f32(p)); }
  static VD load_i32_f64(const std::int32_t* p) {
    return vcvtq_f64_s64(vmovl_s32(vld1_s32(p)));
  }
  static VD loadu_f64(const double* p) { return vld1q_f64(p); }
  static void storeu_f64(double* p, VD v) { vst1q_f64(p, v); }
  static VD set1_f64(double v) { return vdupq_n_f64(v); }
  static VD iota_f64(double base) {
    const VD ramp = vcombine_f64(vdup_n_f64(0.0), vdup_n_f64(1.0));
    return vaddq_f64(vdupq_n_f64(base), ramp);
  }
  static VD add(VD a, VD b) { return vaddq_f64(a, b); }
  static VD sub(VD a, VD b) { return vsubq_f64(a, b); }
  static VD mul(VD a, VD b) { return vmulq_f64(a, b); }
  static MD cmplt_f64(VD a, VD b) { return vcltq_f64(a, b); }
  static VD select_f64(MD m, VD a, VD b) { return vbslq_f64(m, a, b); }
  static VL loadu_lab(const std::int32_t* p) { return vld1_s32(p); }
  static void storeu_lab(std::int32_t* p, VL v) { vst1_s32(p, v); }
  static VL set1_lab(std::int32_t v) { return vdup_n_s32(v); }
  static VL select_lab(MD m, VL a, VL b) {
    return vbsl_s32(vmovn_u64(m), a, b);
  }
  static MD mask_f64_from_bytes(const std::uint8_t* p) {
    return vcombine_u64(vcreate_u64(p[0] != 0 ? ~0ULL : 0ULL),
                        vcreate_u64(p[1] != 0 ? ~0ULL : 0ULL));
  }

  static VI load_u8_i32(const std::uint8_t* p) {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    const uint16x8_t w16 = vmovl_u8(vcreate_u8(packed));
    return vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(w16)));
  }
  static VI loadu_i32(const std::int32_t* p) { return vld1q_s32(p); }
  static void storeu_i32(std::int32_t* p, VI v) { vst1q_s32(p, v); }
  static VI set1_i32(std::int32_t v) { return vdupq_n_s32(v); }
  static VI iota_i32(std::int32_t base) {
    static const std::int32_t ramp[4] = {0, 1, 2, 3};
    return vaddq_s32(vdupq_n_s32(base), vld1q_s32(ramp));
  }
  static VI add_i32(VI a, VI b) { return vaddq_s32(a, b); }
  static VI sub_i32(VI a, VI b) { return vsubq_s32(a, b); }
  static VI mul_i32(VI a, VI b) { return vmulq_s32(a, b); }
  static VI mulw_shr8(VI v, std::int32_t weight) {
    const int32x2_t w = vdup_n_s32(weight);
    const int64x2_t lo = vshrq_n_s64(vmull_s32(vget_low_s32(v), w), 8);
    const int64x2_t hi = vshrq_n_s64(vmull_s32(vget_high_s32(v), w), 8);
    return vcombine_s32(vmovn_s64(lo), vmovn_s64(hi));
  }
  static VI sra_i32(VI v, int count) {
    return vshlq_s32(v, vdupq_n_s32(-count));
  }
  static VI min_i32(VI a, VI b) { return vminq_s32(a, b); }
  static MI cmplt_i32(VI a, VI b) { return vcltq_s32(a, b); }
  static VI select_i32(MI m, VI a, VI b) { return vbslq_s32(m, a, b); }
  static MI mask_i32_from_bytes(const std::uint8_t* p) {
    return vcgtq_s32(load_u8_i32(p), vdupq_n_s32(0));
  }
  static bool all_eq_i32(VI a, VI b) {
    // armv7-safe all-lanes reduction (no vminvq on 32-bit targets).
    const uint32x4_t eq = vceqq_u32(vreinterpretq_u32_s32(a),
                                    vreinterpretq_u32_s32(b));
    uint32x2_t r = vand_u32(vget_low_u32(eq), vget_high_u32(eq));
    r = vand_u32(r, vrev64_u32(r));
    return vget_lane_u32(r, 0) == 0xFFFFFFFFu;
  }

  static VD div(VD a, VD b) { return vdivq_f64(a, b); }
  static void load_rgb(const Rgb8* p, std::int32_t step, const double* gamma,
                       VD& r, VD& g, VD& b) {
    const Rgb8& p0 = p[0];
    const Rgb8& p1 = p[step];
    r = vcombine_f64(vdup_n_f64(gamma[p0.r]), vdup_n_f64(gamma[p1.r]));
    g = vcombine_f64(vdup_n_f64(gamma[p0.g]), vdup_n_f64(gamma[p1.g]));
    b = vcombine_f64(vdup_n_f64(gamma[p0.b]), vdup_n_f64(gamma[p1.b]));
  }
  static VD mantissa(VD t) {
    const uint64x2_t bits = vorrq_u64(
        vandq_u64(vreinterpretq_u64_f64(t), vdupq_n_u64(kF64MantissaBits)),
        vdupq_n_u64(kF64HalfExponent));
    return vreinterpretq_f64_u64(bits);
  }
  static VD exponent_lookup(VD t, const double* table) {
    const uint64x2_t idx =
        vandq_u64(vshrq_n_u64(vreinterpretq_u64_f64(t), 52), vdupq_n_u64(7));
    return vcombine_f64(vdup_n_f64(table[vgetq_lane_u64(idx, 0)]),
                        vdup_n_f64(table[vgetq_lane_u64(idx, 1)]));
  }
  static void store_f32(float* p, VD v) { vst1_f32(p, vcvt_f32_f64(v)); }
};

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable table = make_table<NeonBackend>();
  return table;
}

}  // namespace sslic::kernels
