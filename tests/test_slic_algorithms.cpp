// Behavioural tests for the SLIC algorithm family: baseline CPA SLIC,
// S-SLIC PPA/CPA subsampling, data-width quantization, the preemptive
// extension, instrumentation, and convergence (paper Sections 2-4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "dataset/synthetic.h"
#include "slic/grid.h"
#include "metrics/segmentation_metrics.h"
#include "slic/subset_schedule.h"
#include "slic/assign_kernels.h"
#include "slic/connectivity.h"
#include "slic/fusion.h"
#include "slic/segmenter.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"

namespace sslic {
namespace {

SyntheticParams test_image_params() {
  SyntheticParams p;
  p.width = 120;
  p.height = 80;
  p.min_regions = 4;
  p.max_regions = 8;
  return p;
}

const GroundTruthImage& test_case() {
  static const GroundTruthImage gt = generate_synthetic(test_image_params(), 7);
  return gt;
}

SlicParams quick_params() {
  SlicParams p;
  p.num_superpixels = 40;
  p.compactness = 10.0;
  p.max_iterations = 8;
  return p;
}

void expect_valid_segmentation(const Segmentation& seg, int width, int height) {
  EXPECT_EQ(seg.labels.width(), width);
  EXPECT_EQ(seg.labels.height(), height);
  for (const auto label : seg.labels.pixels()) EXPECT_GE(label, 0);
}

// ----------------------------------------------------------- baseline SLIC

TEST(CpaSlic, ProducesValidConnectedSegmentation) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
}

TEST(CpaSlic, LabelCountNearRequestedK) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  const int count = count_labels(seg.labels);
  EXPECT_GE(count, 20);
  EXPECT_LE(count, 70);
}

TEST(CpaSlic, SuperpixelsRespectColorBoundaries) {
  const auto& gt = test_case();
  const Segmentation seg = CpaSlic(quick_params()).segment(gt.image);
  // Superpixels must align well enough with ground truth for a high ASA.
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.90);
  EXPECT_LT(undersegmentation_error_min(seg.labels, gt.truth), 0.10);
}

TEST(CpaSlic, TraceHasOneEntryPerIteration) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 5;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_EQ(seg.iterations_run, 5);
  ASSERT_EQ(seg.trace.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seg.trace[static_cast<std::size_t>(i)].iteration, i);
}

TEST(CpaSlic, CenterMovementDecays) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 10;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  // k-means-style convergence: late movement well below early movement.
  const double early = seg.trace.front().center_movement;
  const double late = seg.trace.back().center_movement;
  EXPECT_LT(late, early * 0.5 + 1e-9);
}

TEST(CpaSlic, ConvergenceThresholdStopsEarly) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 50;
  p.convergence_threshold = 0.5;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_LT(seg.iterations_run, 50);
}

TEST(CpaSlic, CallbackSeesEveryIteration) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 4;
  int calls = 0;
  const Segmentation seg = CpaSlic(p).segment(
      gt.image, [&](const IterationStats& stats, const LabelImage& labels,
                    const std::vector<ClusterCenter>& centers) {
        EXPECT_EQ(stats.iteration, calls);
        EXPECT_EQ(labels.width(), 120);
        EXPECT_FALSE(centers.empty());
        ++calls;
      });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(seg.iterations_run, 4);
}

TEST(CpaSlic, PhaseTimerCoversAllPhases) {
  const auto& gt = test_case();
  PhaseTimer phases;
  (void)CpaSlic(quick_params()).segment(gt.image, {}, nullptr, &phases);
  EXPECT_GT(phases.phase_ms(CpaSlic::kPhaseColorConversion), 0.0);
  EXPECT_GT(phases.phase_ms(CpaSlic::kPhaseDistanceMin), 0.0);
  EXPECT_GT(phases.phase_ms(CpaSlic::kPhaseCenterUpdate), 0.0);
  EXPECT_GT(phases.phase_ms(CpaSlic::kPhaseOther), 0.0);
}

TEST(CpaSlic, InstrumentationCountsWindowScans) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 3;
  p.enforce_connectivity = false;
  Instrumentation instr;
  (void)CpaSlic(p).segment(gt.image, {}, &instr);
  EXPECT_EQ(instr.iterations, 3u);
  // Each pixel lies in ~4 overlapping 2Sx2S windows (Section 4.2).
  const double evals_per_pixel_iter =
      static_cast<double>(instr.ops.distance_evals) / (120.0 * 80.0 * 3.0);
  EXPECT_GT(evals_per_pixel_iter, 2.5);
  EXPECT_LT(evals_per_pixel_iter, 6.0);
}

TEST(CpaSlic, InvalidParamsThrow) {
  SlicParams p = quick_params();
  p.num_superpixels = 0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
  p = quick_params();
  p.compactness = 0.0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
  p = quick_params();
  p.max_iterations = 0;
  EXPECT_THROW(CpaSlic{p}, ContractViolation);
}

// ---------------------------------------------------------------- PPA SLIC

TEST(PpaSlic, ProducesValidConnectedSegmentation) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
}

TEST(PpaSlic, QualityComparableToBaseline) {
  const auto& gt = test_case();
  const Segmentation base = CpaSlic(quick_params()).segment(gt.image);

  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;  // same number of full sweeps (8)
  const Segmentation sub = PpaSlic(p).segment(gt.image);

  const double use_base = undersegmentation_error_min(base.labels, gt.truth);
  const double use_sub = undersegmentation_error_min(sub.labels, gt.truth);
  // The paper's core claim (Fig. 2): subsampling does not degrade quality.
  EXPECT_LT(use_sub, use_base + 0.02);
}

TEST(PpaSlic, SubsetIterationVisitsRatioOfPixels) {
  const auto& gt = test_case();
  for (const double ratio : {1.0, 0.5, 0.25}) {
    SlicParams p = quick_params();
    p.subsample_ratio = ratio;
    p.max_iterations = 4;
    const Segmentation seg = PpaSlic(p).segment(gt.image);
    for (const auto& stats : seg.trace) {
      EXPECT_NEAR(static_cast<double>(stats.pixels_visited), 120 * 80 * ratio,
                  120 * 80 * ratio * 0.02)
          << "ratio " << ratio;
    }
  }
}

TEST(PpaSlic, NineDistancesPerVisitedPixel) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  p.enforce_connectivity = false;
  Instrumentation instr;
  const Segmentation seg = PpaSlic(p).segment(gt.image, {}, &instr);
  std::uint64_t visited = 0;
  for (const auto& stats : seg.trace) visited += stats.pixels_visited;
  EXPECT_EQ(instr.ops.distance_evals, 9u * visited);
  EXPECT_EQ(instr.ops.compare_ops, 8u * visited);
  EXPECT_EQ(instr.ops.accumulate_ops, 6u * visited);
}

TEST(PpaSlic, LabelsAlwaysFromCandidateSet) {
  // Before connectivity enforcement, every pixel's label must be one of its
  // 9 static candidates.
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.enforce_connectivity = false;
  p.subsample_ratio = 0.5;
  const Segmentation seg = PpaSlic(p).segment(gt.image);

  const CenterGrid grid(120, 80, p.num_superpixels);
  const auto candidates = build_candidate_map(grid);
  for (int y = 0; y < 80; ++y) {
    for (int x = 0; x < 120; ++x) {
      const auto& list = candidates[static_cast<std::size_t>(
          grid.center_index(grid.cell_x(x), grid.cell_y(y)))];
      EXPECT_NE(std::find(list.begin(), list.end(), seg.labels(x, y)), list.end())
          << "pixel " << x << ',' << y;
    }
  }
}

TEST(PpaSlic, RatioOneMatchesGslicStyleFullScan) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 1.0;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  for (const auto& stats : seg.trace)
    EXPECT_EQ(stats.pixels_visited, 120u * 80u);
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.90);
}

// ------------------------------------------------- data-width quantization

TEST(PpaSlic, EightBitMatchesFloatClosely) {
  // Section 6.1's headline: at 8 bits the quality deltas are ~0.003 USE.
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 12;

  const Segmentation f64 = PpaSlic(p, DataWidth::float64()).segment(gt.image);
  const Segmentation fx8 = PpaSlic(p, DataWidth::fixed(8)).segment(gt.image);

  const double use_f = undersegmentation_error_min(f64.labels, gt.truth);
  const double use_8 = undersegmentation_error_min(fx8.labels, gt.truth);
  EXPECT_NEAR(use_8, use_f, 0.015);
}

TEST(PpaSlic, FourBitVisiblyWorseThanEightBit) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 12;

  const Segmentation fx8 = PpaSlic(p, DataWidth::fixed(8)).segment(gt.image);
  const Segmentation fx4 = PpaSlic(p, DataWidth::fixed(4)).segment(gt.image);

  const double asa_8 = achievable_segmentation_accuracy(fx8.labels, gt.truth);
  const double asa_4 = achievable_segmentation_accuracy(fx4.labels, gt.truth);
  EXPECT_LT(asa_4, asa_8 + 1e-9);
}

// --------------------------------------------------------------- CPA S-SLIC

TEST(CpaSubsampled, HalfRatioUpdatesHalfTheCenters) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  // Each iteration scans roughly half the window pixels of a full pass.
  SlicParams full = quick_params();
  full.max_iterations = 4;
  const Segmentation fseg = CpaSlic(full).segment(gt.image);
  EXPECT_LT(seg.trace[1].pixels_visited, fseg.trace[1].pixels_visited * 6 / 10);
}

TEST(CpaSubsampled, QualityReasonable) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation seg = CpaSlic(p).segment(gt.image);
  EXPECT_GT(achievable_segmentation_accuracy(seg.labels, gt.truth), 0.85);
}

// ------------------------------------------------------------- preemptive

TEST(Preemptive, SkipsTilesOnEasyImage) {
  // A flat image converges immediately: after two calm updates most tiles
  // must be skipped.
  RgbImage flat(120, 80, Rgb8{120, 130, 140});
  SlicParams p = quick_params();
  p.subsample_ratio = 1.0;
  p.max_iterations = 10;
  p.preemptive = true;
  Instrumentation instr;
  (void)PpaSlic(p).segment(flat, {}, &instr);
  EXPECT_GT(instr.tiles_skipped, 0u);
}

TEST(Preemptive, QualityPreservedOnTestImage) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation plain = PpaSlic(p).segment(gt.image);
  p.preemptive = true;
  const Segmentation pre = PpaSlic(p).segment(gt.image);
  const double asa_plain = achievable_segmentation_accuracy(plain.labels, gt.truth);
  const double asa_pre = achievable_segmentation_accuracy(pre.labels, gt.truth);
  EXPECT_NEAR(asa_pre, asa_plain, 0.03);
}

// ------------------------------------------------------ subset pattern (PPA)

TEST(PpaSlic, RowInterleavedVisitsRatioOfPixels) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.subset_pattern = SubsetPattern::kRowInterleaved;
  p.max_iterations = 4;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  for (const auto& stats : seg.trace)
    EXPECT_EQ(stats.pixels_visited, 120u * 80u / 2u);
}

TEST(PpaSlic, RowInterleavedQualityCloseToDithered) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  const Segmentation dithered = PpaSlic(p).segment(gt.image);
  p.subset_pattern = SubsetPattern::kRowInterleaved;
  const Segmentation rows = PpaSlic(p).segment(gt.image);
  const double asa_d = achievable_segmentation_accuracy(dithered.labels, gt.truth);
  const double asa_r = achievable_segmentation_accuracy(rows.labels, gt.truth);
  EXPECT_NEAR(asa_r, asa_d, 0.03);
}

// Parameterized sweep: the PPA stays valid across K, ratio, and pattern.
class PpaConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, double, SubsetPattern>> {};

TEST_P(PpaConfigSweep, ValidSegmentationEverywhere) {
  const auto [k, ratio, pattern] = GetParam();
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.num_superpixels = k;
  p.subsample_ratio = ratio;
  p.subset_pattern = pattern;
  p.max_iterations = 6;
  const Segmentation seg = PpaSlic(p).segment(gt.image);
  expect_valid_segmentation(seg, 120, 80);
  EXPECT_TRUE(is_fully_connected(seg.labels));
  EXPECT_GE(count_labels(seg.labels), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PpaConfigSweep,
    ::testing::Combine(::testing::Values(6, 40, 150),
                       ::testing::Values(1.0, 0.5, 0.25),
                       ::testing::Values(SubsetPattern::kDithered,
                                         SubsetPattern::kRowInterleaved)));

// ----------------------------------------------------------- temporal warm start

TEST(TemporalSlic, WarmFramesUseFewerIterations) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  TemporalSlic video(p);
  EXPECT_FALSE(video.has_state());

  const Segmentation first = video.next_frame(gt.image);
  EXPECT_TRUE(video.has_state());
  EXPECT_EQ(first.iterations_run, 16);

  const Segmentation second = video.next_frame(gt.image);
  EXPECT_EQ(second.iterations_run, video.warm_iterations());
  EXPECT_LT(second.iterations_run, first.iterations_run);
}

TEST(TemporalSlic, WarmQualityMatchesColdOnStaticScene) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 16;
  TemporalSlic video(p);
  (void)video.next_frame(gt.image);
  const Segmentation warm = video.next_frame(gt.image);

  const Segmentation cold = PpaSlic(p).segment(gt.image);
  const double asa_warm = achievable_segmentation_accuracy(warm.labels, gt.truth);
  const double asa_cold = achievable_segmentation_accuracy(cold.labels, gt.truth);
  EXPECT_NEAR(asa_warm, asa_cold, 0.01);
}

TEST(TemporalSlic, ResetAndResolutionChangeGoCold) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 6;
  TemporalSlic video(p);
  (void)video.next_frame(gt.image);
  video.reset();
  EXPECT_FALSE(video.has_state());

  (void)video.next_frame(gt.image);
  EXPECT_TRUE(video.has_state());
  // A different resolution cannot reuse the centers: cold restart.
  RgbImage other(64, 48, Rgb8{90, 90, 90});
  const Segmentation seg = video.next_frame(other);
  EXPECT_EQ(seg.iterations_run, 6);
  EXPECT_EQ(seg.labels.width(), 64);
}

TEST(TemporalSlic, WarmStartSizeMismatchThrows) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  const PpaSlic segmenter(p);
  const LabImage lab = srgb_to_lab(gt.image);
  const std::vector<ClusterCenter> wrong(3);
  EXPECT_THROW((void)segmenter.segment_lab_warm(lab, wrong), ContractViolation);
}

// --------------------------------------------------------------- segmenter

TEST(Segmenter, NamesAreDescriptive) {
  EXPECT_EQ(algorithm_name(Algorithm::kSlic, 1.0), "SLIC");
  EXPECT_EQ(algorithm_name(Algorithm::kSslicPpa, 0.5), "S-SLIC-PPA (0.5)");
  EXPECT_EQ(algorithm_name(Algorithm::kSslicCpa, 0.25), "S-SLIC-CPA (0.25)");
}

TEST(Segmenter, DispatchesAllAlgorithms) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = 0.5;
  p.max_iterations = 4;
  for (const auto algorithm :
       {Algorithm::kSlic, Algorithm::kSslicPpa, Algorithm::kSslicCpa}) {
    const Segmentation seg = run_segmenter(algorithm, p, gt.image);
    expect_valid_segmentation(seg, 120, 80);
  }
}

TEST(Segmenter, LabEntryPointMatchesRgbEntryPoint) {
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.max_iterations = 3;
  const LabImage lab = srgb_to_lab(gt.image);
  const Segmentation a = run_segmenter(Algorithm::kSslicPpa, p, gt.image);
  const Segmentation b = run_segmenter_lab(Algorithm::kSslicPpa, p, lab);
  EXPECT_EQ(a.labels, b.labels);
}

// ------------------------------------------------------------ pinned goldens

// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PpaGolden {
  const char* name;
  std::uint64_t labels;
  std::uint64_t centers;
};

// Label and center-bit hashes of PpaSlic over the schedule x preemptive x
// cold/warm x geometry matrix below. They pin the exact bytes every
// subset pattern produces, so any change to how the iteration loop visits,
// assigns or accumulates the active subset must reproduce them on every
// ISA and with fusion on and off.
constexpr PpaGolden kPpaGoldens[] = {
    {"odd123x77/checker0.5/plain/cold", 0x4a5990bd84993c71ULL, 0x17a132bf544c7590ULL},
    {"odd123x77/checker0.5/plain/warm", 0x9342f375f178226dULL, 0xe2bf0d7b995296d0ULL},
    {"odd123x77/checker0.5/pre/cold", 0x391aeb8fc468a4d9ULL, 0x8d6d9f183152cee0ULL},
    {"odd123x77/checker0.5/pre/warm", 0x3f0e670fdedcd55fULL, 0xa1081d02c1508976ULL},
    {"odd123x77/bayer0.25/plain/cold", 0x9fd4176cf6c62110ULL, 0xb369a2e0502ea5adULL},
    {"odd123x77/bayer0.25/plain/warm", 0x4b186c094f1eaf94ULL, 0x9aa278a9d7495c46ULL},
    {"odd123x77/bayer0.25/pre/cold", 0xb124f5e8521c4918ULL, 0xed6c32c9900ecad4ULL},
    {"odd123x77/bayer0.25/pre/warm", 0x082aa7ffc85a4410ULL, 0xed6629de739c2788ULL},
    {"odd123x77/diag1/3/plain/cold", 0xc787cc7a91c7f269ULL, 0x6c240da3d9cbee02ULL},
    {"odd123x77/diag1/3/plain/warm", 0x94784059a3c268e8ULL, 0x6e43c9b18af750edULL},
    {"odd123x77/diag1/3/pre/cold", 0x6fcb663af9f884a9ULL, 0xee987a7ff60a51d7ULL},
    {"odd123x77/diag1/3/pre/warm", 0xe1d779cbae73c30cULL, 0x341e6bb63a07eeefULL},
    {"odd123x77/diag1/5/plain/cold", 0x0509553b8b6b557aULL, 0xc3e83393990c0221ULL},
    {"odd123x77/diag1/5/plain/warm", 0xcc54cd76bdd71e27ULL, 0xc9629b5d5c2db4a9ULL},
    {"odd123x77/diag1/5/pre/cold", 0x8a2308e05f5e478dULL, 0x29f84b65aaa94549ULL},
    {"odd123x77/diag1/5/pre/warm", 0xd2285fb306cf57f0ULL, 0x566e6b5099b7cc43ULL},
    {"odd123x77/rows0.5/plain/cold", 0x1aac81ebdb7b3f74ULL, 0xb5ac2ff1090a0397ULL},
    {"odd123x77/rows0.5/plain/warm", 0x0b91e8362e14111bULL, 0x2d3dafb13d7fad33ULL},
    {"odd123x77/rows0.5/pre/cold", 0xf893e8716a1bea79ULL, 0xd51c23a41b986a59ULL},
    {"odd123x77/rows0.5/pre/warm", 0x033e616604fa694fULL, 0x1bccf29ccbcbcea7ULL},
    {"odd123x77/full/plain/cold", 0x82e5defb6dcbbd2bULL, 0x2aa39a0c327ca54fULL},
    {"odd123x77/full/plain/warm", 0x9c139db418a735a9ULL, 0x481e5be2e323aeb0ULL},
    {"odd123x77/full/pre/cold", 0x8965ca1a1012fb7aULL, 0xe2e76011438ff2c3ULL},
    {"odd123x77/full/pre/warm", 0x8415d433895a3c47ULL, 0x8de2978eb649339eULL},
    {"narrow4x37/checker0.5/plain/cold", 0x7223547661298585ULL, 0xad1c5ca0d6d2c23cULL},
    {"narrow4x37/checker0.5/plain/warm", 0x091226fe6f8603a4ULL, 0x4c48d9308bfcbafeULL},
    {"narrow4x37/checker0.5/pre/cold", 0x8eb4c287cb76d785ULL, 0xef742b153d46d123ULL},
    {"narrow4x37/checker0.5/pre/warm", 0x6673577280f6cb73ULL, 0xada1ed94a5edeb88ULL},
    {"narrow4x37/bayer0.25/plain/cold", 0xd3dc4333a91739d4ULL, 0xc953dd761946bf55ULL},
    {"narrow4x37/bayer0.25/plain/warm", 0x970d2f711ca267d4ULL, 0x69b8b320756a8ff8ULL},
    {"narrow4x37/bayer0.25/pre/cold", 0xd3dc4333a91739d4ULL, 0xc953dd761946bf55ULL},
    {"narrow4x37/bayer0.25/pre/warm", 0x970d2f711ca267d4ULL, 0x69b8b320756a8ff8ULL},
    {"narrow4x37/diag1/3/plain/cold", 0x7223547661298585ULL, 0x3477f51cdcb78a01ULL},
    {"narrow4x37/diag1/3/plain/warm", 0xcadae7c35c2e6747ULL, 0xb9f8a87c429dfa12ULL},
    {"narrow4x37/diag1/3/pre/cold", 0x3d211c874139ec26ULL, 0xf71c52a08417fecfULL},
    {"narrow4x37/diag1/3/pre/warm", 0x1a3afa7010019230ULL, 0x299f7f6e8dbbbc32ULL},
    {"narrow4x37/diag1/5/plain/cold", 0x522ce1e7998c9645ULL, 0x79a6d3c02498a0c7ULL},
    {"narrow4x37/diag1/5/plain/warm", 0x9feb21e253150754ULL, 0xcd691666e74bcd20ULL},
    {"narrow4x37/diag1/5/pre/cold", 0xc85b76f18f34b186ULL, 0x049ea59030f7e4daULL},
    {"narrow4x37/diag1/5/pre/warm", 0x178371488fd2b143ULL, 0x2030d906a711d772ULL},
    {"narrow4x37/rows0.5/plain/cold", 0xae8ff32fd6a57612ULL, 0xc286eae7f94c7390ULL},
    {"narrow4x37/rows0.5/plain/warm", 0xf55345ba4a7c9fb7ULL, 0x0a697911bb98448cULL},
    {"narrow4x37/rows0.5/pre/cold", 0x00616c6e9b7b3130ULL, 0x31c588a8bdcd661bULL},
    {"narrow4x37/rows0.5/pre/warm", 0x5e7a4ad666ed9c07ULL, 0x173f7ee3b6be6ceaULL},
    {"narrow4x37/full/plain/cold", 0x8923b9b5718f6305ULL, 0xff86cd09b2ae5950ULL},
    {"narrow4x37/full/plain/warm", 0x9386f649058c46a3ULL, 0xc0413f7438e69d01ULL},
    {"narrow4x37/full/pre/cold", 0x4a310f42aea17f46ULL, 0xf118a6bfb6655200ULL},
    {"narrow4x37/full/pre/warm", 0x8aee84caa14caf04ULL, 0xa1a7cfbc64dae45dULL},
};

TEST(PpaGolden, PinnedHashesAcrossSchedulesIsasAndFusion) {
  struct Schedule {
    const char* name;
    double ratio;
    SubsetPattern pattern;
  };
  const Schedule schedules[] = {
      {"checker0.5", 0.5, SubsetPattern::kDithered},
      {"bayer0.25", 0.25, SubsetPattern::kDithered},
      {"diag1/3", 1.0 / 3.0, SubsetPattern::kDithered},
      {"diag1/5", 0.2, SubsetPattern::kDithered},
      {"rows0.5", 0.5, SubsetPattern::kRowInterleaved},
      {"full", 1.0, SubsetPattern::kDithered},
  };
  struct Geometry {
    const char* name;
    int width;
    int height;
    int superpixels;
  };
  // An odd width whose tile and cell boundaries disagree, and a raster
  // narrower than the widest subset stride.
  const Geometry geometries[] = {{"odd123x77", 123, 77, 60},
                                 {"narrow4x37", 4, 37, 6}};

  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  struct IsaReset {
    ~IsaReset() { simd::reset_preferred_isa(); }
  } isa_reset;

  std::string actual;  // printed on mismatch, in table form
  std::uint64_t tiles_skipped = 0;
  std::size_t checked = 0;
  for (const Geometry& g : geometries) {
    // The generator needs 16x16; narrower rasters are its left columns.
    SyntheticParams sp;
    sp.width = std::max(g.width, 16);
    sp.height = std::max(g.height, 16);
    sp.min_regions = 2;
    sp.max_regions = 5;
    const auto crop = [&](std::uint64_t seed) {
      const LabImage full = srgb_to_lab(generate_synthetic(sp, seed).image);
      LabImage lab(g.width, g.height);
      for (int y = 0; y < g.height; ++y)
        for (int x = 0; x < g.width; ++x) lab(x, y) = full(x, y);
      return lab;
    };
    const LabImage cold_lab = crop(11);
    const LabImage warm_lab = crop(12);
    for (const Schedule& s : schedules) {
      for (const bool preemptive : {false, true}) {
        SlicParams p;
        p.num_superpixels = g.superpixels;
        p.max_iterations = 12;
        p.subsample_ratio = s.ratio;
        p.subset_pattern = s.pattern;
        p.preemptive = preemptive;
        p.freeze_threshold = 1.0;
        const PpaSlic segmenter(p);
        for (const bool warm : {false, true}) {
          const std::string name = std::string(g.name) + "/" + s.name +
                                   (preemptive ? "/pre" : "/plain") +
                                   (warm ? "/warm" : "/cold");
          const PpaGolden* golden = nullptr;
          for (const PpaGolden& entry : kPpaGoldens)
            if (name == entry.name) golden = &entry;
          bool first = true;
          for (const simd::Isa isa : isas) {
            simd::set_preferred_isa(isa);
            for (const bool fused : {true, false}) {
              FusionGuard fusion(fused);
              Instrumentation instr;
              Segmentation seg;
              if (warm) {
                const std::vector<ClusterCenter> start =
                    segmenter.segment_lab(cold_lab).centers;
                seg = segmenter.segment_lab_warm(warm_lab, start, {}, &instr);
              } else {
                seg = segmenter.segment_lab(cold_lab, {}, &instr);
              }
              tiles_skipped += instr.tiles_skipped;
              const std::uint64_t lh =
                  fnv1a(seg.labels.pixels().data(),
                        seg.labels.pixels().size() * sizeof(std::int32_t));
              const std::uint64_t ch =
                  fnv1a(seg.centers.data(),
                        seg.centers.size() * sizeof(ClusterCenter));
              if (first) {
                char line[160];
                std::snprintf(line, sizeof(line),
                              "    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                              name.c_str(),
                              static_cast<unsigned long long>(lh),
                              static_cast<unsigned long long>(ch));
                actual += line;
                first = false;
              }
              const std::string what = name + " isa=" + simd::isa_name(isa) +
                                       (fused ? " fused" : " two-pass");
              if (golden == nullptr) {
                ADD_FAILURE() << "no golden for " << what;
                continue;
              }
              EXPECT_EQ(lh, golden->labels) << what << " labels";
              EXPECT_EQ(ch, golden->centers) << what << " centers";
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 6u * 2u * 2u * 2u * isas.size());
  // The preemptive rows are only meaningful if some tiles were skipped.
  EXPECT_GT(tiles_skipped, 0u);
  if (HasFailure()) std::printf("actual goldens:\n%s", actual.c_str());
}

// Parameterized determinism sweep: all algorithms produce identical results
// across repeated runs (no hidden state).
class DeterminismSweep
    : public ::testing::TestWithParam<std::pair<Algorithm, double>> {};

TEST_P(DeterminismSweep, RepeatableLabelMaps) {
  const auto [algorithm, ratio] = GetParam();
  const auto& gt = test_case();
  SlicParams p = quick_params();
  p.subsample_ratio = ratio;
  p.max_iterations = 4;
  const Segmentation a = run_segmenter(algorithm, p, gt.image);
  const Segmentation b = run_segmenter(algorithm, p, gt.image);
  EXPECT_EQ(a.labels, b.labels);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, DeterminismSweep,
    ::testing::Values(std::pair{Algorithm::kSlic, 1.0},
                      std::pair{Algorithm::kSslicPpa, 1.0},
                      std::pair{Algorithm::kSslicPpa, 0.5},
                      std::pair{Algorithm::kSslicPpa, 0.25},
                      std::pair{Algorithm::kSslicCpa, 0.5}));

}  // namespace
}  // namespace sslic
