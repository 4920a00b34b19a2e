// Tests for src/color: the double-precision reference conversion (Eqs. 1-4),
// its exact vector kernels (checked on all 2^24 colours), and the
// accelerator's LUT color-conversion unit (Fig. 4, Section 6.1).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "color/color_convert.h"
#include "color/lab8.h"
#include "color/lut_color_unit.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"

namespace sslic {
namespace {

bool same_bits(const LabF& a, const LabF& b) {
  return std::memcmp(&a, &b, sizeof(LabF)) == 0;
}

/// The conversion as the golden labels were recorded: lab_f's cube root
/// taken from the host libm's std::cbrt.
LabF srgb_to_lab_std_cbrt(Rgb8 rgb) {
  const auto f = [](double t) {
    if (t > kLabEpsilon) return std::cbrt(t);
    return (kLabKappa * t + 16.0) / 116.0;
  };
  const std::array<double, 256>& gamma = srgb_gamma_table();
  const double r = gamma[rgb.r];
  const double g = gamma[rgb.g];
  const double b = gamma[rgb.b];
  const double x = kSrgbToXyz[0] * r + kSrgbToXyz[1] * g + kSrgbToXyz[2] * b;
  const double y = kSrgbToXyz[3] * r + kSrgbToXyz[4] * g + kSrgbToXyz[5] * b;
  const double z = kSrgbToXyz[6] * r + kSrgbToXyz[7] * g + kSrgbToXyz[8] * b;
  const double fx = f(x / kReferenceWhite[0]);
  const double fy = f(y / kReferenceWhite[1]);
  const double fz = f(z / kReferenceWhite[2]);
  return {static_cast<float>(116.0 * fy - 16.0),
          static_cast<float>(500.0 * (fx - fy)),
          static_cast<float>(200.0 * (fy - fz))};
}

/// Converts all 2^24 colours with `convert(rgb, x_step, count, L, a, b)`
/// (the srgb_to_lab_row signature) and counts the ones whose bits differ
/// from srgb_to_lab(Rgb8). Slab r holds the 65536 colours with red = r,
/// colour i of the slab at rgb[x_step * i]; the pixels between them hold
/// other colours the conversion must skip. Slabs are spread over the
/// global pool.
template <typename Convert>
std::int64_t mismatches_over_all_colors(std::int32_t x_step,
                                        const Convert& convert) {
  constexpr std::int32_t kSlab = 256 * 256;
  std::atomic<std::int64_t> mismatches{0};
  parallel_for(0, 256, [&](std::int64_t lo, std::int64_t hi) {
    const auto step = static_cast<std::size_t>(x_step);
    std::vector<Rgb8> rgb(kSlab * step);
    std::vector<float> L(kSlab), a(kSlab), b(kSlab);
    std::int64_t local = 0;
    for (std::int64_t r = lo; r < hi; ++r) {
      for (std::size_t i = 0; i < rgb.size(); ++i) {
        const Rgb8 colour{static_cast<std::uint8_t>(r),
                          static_cast<std::uint8_t>(i / step >> 8),
                          static_cast<std::uint8_t>(i / step)};
        // Skipped pixels get the complement, so reading one shows.
        rgb[i] = i % step == 0
                     ? colour
                     : Rgb8{static_cast<std::uint8_t>(~colour.r),
                            static_cast<std::uint8_t>(~colour.g),
                            static_cast<std::uint8_t>(~colour.b)};
      }
      convert(rgb.data(), x_step, kSlab, L.data(), a.data(), b.data());
      for (std::size_t i = 0; i < L.size(); ++i) {
        local += same_bits({L[i], a[i], b[i]}, srgb_to_lab(rgb[i * step]))
                     ? 0
                     : 1;
      }
    }
    mismatches += local;
  });
  return mismatches.load();
}

// ------------------------------------------------------ reference (Eq. 1-4)

TEST(ColorReference, InverseGammaEndpoints) {
  EXPECT_DOUBLE_EQ(srgb_inverse_gamma(0.0), 0.0);
  EXPECT_NEAR(srgb_inverse_gamma(1.0), 1.0, 1e-12);
}

TEST(ColorReference, InverseGammaContinuousAtKnee) {
  const double below = srgb_inverse_gamma(0.04045 - 1e-9);
  const double above = srgb_inverse_gamma(0.04045 + 1e-9);
  EXPECT_NEAR(below, above, 1e-5);
}

TEST(ColorReference, LabFContinuousAtEpsilon) {
  const double below = lab_f(kLabEpsilon - 1e-9);
  const double above = lab_f(kLabEpsilon + 1e-9);
  EXPECT_NEAR(below, above, 1e-5);
}

TEST(ColorReference, WhiteIsL100) {
  const LabF white = srgb_to_lab({255, 255, 255});
  EXPECT_NEAR(white.L, 100.0, 0.01);
  EXPECT_NEAR(white.a, 0.0, 0.05);
  EXPECT_NEAR(white.b, 0.0, 0.05);
}

TEST(ColorReference, BlackIsL0) {
  const LabF black = srgb_to_lab({0, 0, 0});
  EXPECT_NEAR(black.L, 0.0, 1e-6);
  EXPECT_NEAR(black.a, 0.0, 1e-6);
  EXPECT_NEAR(black.b, 0.0, 1e-6);
}

TEST(ColorReference, GreysAreNeutral) {
  for (int v = 10; v <= 250; v += 40) {
    const auto g = static_cast<std::uint8_t>(v);
    const LabF lab = srgb_to_lab({g, g, g});
    EXPECT_NEAR(lab.a, 0.0, 0.05) << "v=" << v;
    EXPECT_NEAR(lab.b, 0.0, 0.05) << "v=" << v;
  }
}

TEST(ColorReference, PrimariesMatchKnownValues) {
  // Standard sRGB(D65) CIELAB coordinates of the primaries.
  const LabF red = srgb_to_lab({255, 0, 0});
  EXPECT_NEAR(red.L, 53.24, 0.1);
  EXPECT_NEAR(red.a, 80.09, 0.2);
  EXPECT_NEAR(red.b, 67.20, 0.2);

  const LabF green = srgb_to_lab({0, 255, 0});
  EXPECT_NEAR(green.L, 87.74, 0.1);
  EXPECT_NEAR(green.a, -86.18, 0.2);
  EXPECT_NEAR(green.b, 83.18, 0.2);

  const LabF blue = srgb_to_lab({0, 0, 255});
  EXPECT_NEAR(blue.L, 32.30, 0.1);
  EXPECT_NEAR(blue.a, 79.19, 0.2);
  EXPECT_NEAR(blue.b, -107.86, 0.2);
}

TEST(ColorReference, LightnessMonotoneInGrey) {
  float prev = -1.0f;
  for (int v = 0; v <= 255; ++v) {
    const auto g = static_cast<std::uint8_t>(v);
    const float L = srgb_to_lab({g, g, g}).L;
    EXPECT_GT(L, prev);
    prev = L;
  }
}

TEST(ColorReference, InverseRoundTrips) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const Rgb8 rgb{static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255))};
    const Rgb8 back = lab_to_srgb(srgb_to_lab(rgb));
    EXPECT_NEAR(back.r, rgb.r, 1) << i;
    EXPECT_NEAR(back.g, rgb.g, 1) << i;
    EXPECT_NEAR(back.b, rgb.b, 1) << i;
  }
}

TEST(ColorReference, FullImageConversionMatchesPerPixel) {
  RgbImage img(3, 2);
  img(0, 0) = {10, 20, 30};
  img(2, 1) = {200, 100, 50};
  const LabImage lab = srgb_to_lab(img);
  EXPECT_EQ(lab(0, 0), srgb_to_lab(img(0, 0)));
  EXPECT_EQ(lab(2, 1), srgb_to_lab(img(2, 1)));

  // Larger random images through the global pool: every range partition
  // must give the per-pixel bits, reusing one output image across calls.
  struct ThreadsGuard {
    ~ThreadsGuard() { ThreadPool::set_global_threads(0); }
  } guard;
  Rng rng(2024);
  LabImage reused;
  for (const auto& [w, h] : {std::pair{97, 61}, std::pair{640, 37}}) {
    RgbImage random(w, h);
    for (auto& px : random.pixels())
      px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255))};
    for (const int threads : {1, 2, 3, 4}) {
      ThreadPool::set_global_threads(threads);
      srgb_to_lab(random, reused);
      ASSERT_EQ(reused.width(), w);
      ASSERT_EQ(reused.height(), h);
      for (std::size_t i = 0; i < random.size(); ++i) {
        ASSERT_TRUE(same_bits(reused.pixels()[i],
                              srgb_to_lab(random.pixels()[i])))
            << "pixel " << i << " threads=" << threads << " " << w << "x"
            << h;
      }
    }
  }
}

TEST(ColorReference, PlanarConversionMatchesSplitOfInterleaved) {
  // The frame path's conversion must write exactly the planes a split of
  // the interleaved conversion gives, at every stride the segmenters use:
  // widths below the stride and not divisible by it, 1xN and Nx1 rasters,
  // one worker and four.
  struct ThreadsGuard {
    ~ThreadsGuard() { ThreadPool::set_global_threads(0); }
  } guard;
  Rng rng(77);
  LabPlanes got;  // reused across geometries and strides
  for (const auto& [w, h] :
       {std::pair{1, 9}, std::pair{9, 1}, std::pair{2, 3}, std::pair{4, 5},
        std::pair{13, 7}, std::pair{40, 6}, std::pair{101, 17}}) {
    RgbImage rgb(w, h);
    for (auto& px : rgb.pixels())
      px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255))};
    const LabImage lab = srgb_to_lab(rgb);
    for (const int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      for (int stride = 1; stride <= 5; ++stride) {
        LabPlanes want;
        split_lab_planes(lab, want, stride);
        srgb_to_lab(rgb, got, stride);
        ASSERT_EQ(got.stride, stride);
        ASSERT_EQ(got.width(), w);
        ASSERT_EQ(got.height(), h);
        const auto bytes = rgb.size() * sizeof(float);
        EXPECT_EQ(std::memcmp(got.L.data(), want.L.data(), bytes), 0)
            << w << "x" << h << " stride=" << stride << " threads=" << threads;
        EXPECT_EQ(std::memcmp(got.a.data(), want.a.data(), bytes), 0)
            << w << "x" << h << " stride=" << stride << " threads=" << threads;
        EXPECT_EQ(std::memcmp(got.b.data(), want.b.data(), bytes), 0)
            << w << "x" << h << " stride=" << stride << " threads=" << threads;
      }
    }
  }
}

// ------------------------------------------- exhaustive (all 2^24 colours)

TEST(ColorExhaustive, ReferenceMatchesStdCbrtFormulation) {
  // The transcribed cube root must reproduce the labels recorded with
  // std::cbrt: every 8-bit colour, compared as bits.
  EXPECT_EQ(mismatches_over_all_colors(
                1,
                [](const Rgb8* rgb, std::int32_t, std::int32_t count, float* L,
                   float* a, float* b) {
                  for (std::int32_t i = 0; i < count; ++i) {
                    const LabF lab = srgb_to_lab_std_cbrt(rgb[i]);
                    L[i] = lab.L;
                    a[i] = lab.a;
                    b[i] = lab.b;
                  }
                }),
            0);
}

class SrgbToLabRowExhaustive : public ::testing::TestWithParam<simd::Isa> {};

TEST_P(SrgbToLabRowExhaustive, MatchesReferenceOnAllColors) {
  // Every colour at every input stride the frame path uses (1 for CPA and
  // full PPA, 2 for checkerboard/Bayer, up to 5 for diagonal patterns).
  const simd::Isa isa = GetParam();
  if (!kernels::backend_compiled(isa) || !simd::cpu_supports(isa))
    GTEST_SKIP() << simd::isa_name(isa) << " not runnable here";
  const kernels::KernelTable& table = kernels::table_for(isa);
  const double* gamma = srgb_gamma_table().data();
  for (std::int32_t x_step = 1; x_step <= 5; ++x_step) {
    EXPECT_EQ(mismatches_over_all_colors(
                  x_step,
                  [&](const Rgb8* rgb, std::int32_t step, std::int32_t count,
                      float* L, float* a, float* b) {
                    table.srgb_to_lab_row(rgb, step, count, gamma, L, a, b);
                  }),
              0)
        << simd::isa_name(isa) << " x_step=" << x_step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SrgbToLabRowExhaustive,
    ::testing::Values(simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
                      simd::Isa::kAvx512, simd::Isa::kNeon),
    [](const ::testing::TestParamInfo<simd::Isa>& param) {
      return std::string(simd::isa_name(param.param));
    });

// ------------------------------------------------------------------- Lab8

TEST(Lab8, EncodeDecodeEndpoints) {
  EXPECT_EQ(encode_lab8({0.0f, 0.0f, 0.0f}).L, 0);
  EXPECT_EQ(encode_lab8({100.0f, 0.0f, 0.0f}).L, 255);
  EXPECT_EQ(encode_lab8({0.0f, -128.0f, 127.0f}).a, 0);
  EXPECT_EQ(encode_lab8({0.0f, -128.0f, 127.0f}).b, 255);
}

TEST(Lab8, DecodeInvertsEncodeWithinStep) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const LabF lab{static_cast<float>(rng.next_double(0.0, 100.0)),
                   static_cast<float>(rng.next_double(-100.0, 100.0)),
                   static_cast<float>(rng.next_double(-100.0, 100.0))};
    const LabF back = decode_lab8(encode_lab8(lab));
    EXPECT_NEAR(back.L, lab.L, 100.0 / 255.0 / 2.0 + 1e-3);
    EXPECT_NEAR(back.a, lab.a, 0.51);
    EXPECT_NEAR(back.b, lab.b, 0.51);
  }
}

TEST(Lab8, EncodeClampsOutOfRange) {
  EXPECT_EQ(encode_lab8({150.0f, 0.0f, 0.0f}).L, 255);
  EXPECT_EQ(encode_lab8({-10.0f, 200.0f, -200.0f}).L, 0);
  EXPECT_EQ(encode_lab8({0.0f, 200.0f, 0.0f}).a, 255);
}

// --------------------------------------------------------- LUT color unit

TEST(LutColorUnit, MatchesReferenceWithinTolerance) {
  // The point of the 8-bit LUT design (Section 6.1): the integer pipeline
  // tracks the double-precision reference closely. The a/b channels
  // amplify the PWL's f(.) error by 500x/200x, so the worst-case envelope
  // is a few 8-bit steps; the mean error must stay below one step. (The
  // segmentation-quality consequence is tested end-to-end in
  // HwSlic.MatchesFloatPpaQuality.)
  const LutColorUnit unit;
  Rng rng(42);
  int max_err = 0;
  double err_sum = 0.0;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    const Rgb8 rgb{static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255)),
                   static_cast<std::uint8_t>(rng.next_int(0, 255))};
    const Lab8 hw = unit.convert(rgb);
    const Lab8 ref = encode_lab8(srgb_to_lab(rgb));
    const int err = std::max({std::abs(hw.L - ref.L), std::abs(hw.a - ref.a),
                              std::abs(hw.b - ref.b)});
    max_err = std::max(max_err, err);
    err_sum += err;
  }
  EXPECT_LE(max_err, 6);
  EXPECT_LE(err_sum / kSamples, 2.5);
}

TEST(LutColorUnit, ExactOnNeutrals) {
  const LutColorUnit unit;
  const Lab8 white = unit.convert({255, 255, 255});
  EXPECT_GE(white.L, 253);
  EXPECT_NEAR(white.a, 128, 2);
  EXPECT_NEAR(white.b, 128, 2);
  const Lab8 black = unit.convert({0, 0, 0});
  EXPECT_LE(black.L, 1);
}

TEST(LutColorUnit, PlanarLayoutMatchesInterleaved) {
  const LutColorUnit unit;
  RgbImage img(4, 3);
  Rng rng(7);
  for (auto& px : img.pixels())
    px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255)),
          static_cast<std::uint8_t>(rng.next_int(0, 255))};
  const Planar8 planes = unit.convert(img);
  const Image<Lab8> inter = unit.convert_interleaved(img);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(planes.ch1(x, y), inter(x, y).L);
      EXPECT_EQ(planes.ch2(x, y), inter(x, y).a);
      EXPECT_EQ(planes.ch3(x, y), inter(x, y).b);
    }
  }
}

TEST(LutColorUnit, PwlApproximatesLabF) {
  const LutColorUnit unit;
  const int frac = unit.config().internal_frac_bits;
  const double scale = std::ldexp(1.0, frac);
  double max_err = 0.0;
  for (int t = 0; t <= (1 << frac); t += 3) {
    const double approx = unit.pwl_lab_f(t) / scale;
    const double exact = lab_f(t / scale);
    max_err = std::max(max_err, std::fabs(approx - exact));
  }
  // 8 power-of-two segments keep the PWL within ~1.5% absolute everywhere,
  // enough for 8-bit output accuracy.
  EXPECT_LT(max_err, 0.015);
}

TEST(LutColorUnit, MorePwlSegmentsReduceError) {
  const double scale = std::ldexp(1.0, 12);
  double prev_err = 1e9;
  for (const int segments : {4, 8, 12}) {
    LutColorUnit::Config config;
    config.pwl_segments = segments;
    const LutColorUnit unit(config);
    double max_err = 0.0;
    for (int t = 0; t <= (1 << 12); t += 7) {
      max_err = std::max(max_err,
                         std::fabs(unit.pwl_lab_f(t) / scale - lab_f(t / scale)));
    }
    EXPECT_LT(max_err, prev_err) << segments << " segments";
    prev_err = max_err;
  }
}

TEST(LutColorUnit, LutStorageMatchesConfig) {
  const LutColorUnit unit;
  // 256 gamma entries + 9 node positions + 9 node values + 8 slopes,
  // 13-bit entries packed into 2 bytes each.
  EXPECT_EQ(unit.lut_storage_bytes(), (256u + 9u + 9u + 8u) * 2u);
}

TEST(LutColorUnit, InvalidConfigThrows) {
  LutColorUnit::Config config;
  config.pwl_segments = 30;
  EXPECT_THROW(LutColorUnit{config}, ContractViolation);
  config.pwl_segments = 8;
  config.internal_frac_bits = 2;
  EXPECT_THROW(LutColorUnit{config}, ContractViolation);
}

TEST(LutColorUnit, DeterministicAcrossInstances) {
  const LutColorUnit a, b;
  for (int v = 0; v < 256; v += 5) {
    const Rgb8 rgb{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(255 - v),
                   static_cast<std::uint8_t>(v / 2)};
    EXPECT_EQ(a.convert(rgb), b.convert(rgb));
  }
}

}  // namespace
}  // namespace sslic
