// Tests for the SIMD assignment kernels and their runtime dispatch: every
// vector backend compiled into the binary (and supported by this CPU) must
// produce byte-identical min-distances and labels to the scalar reference —
// across odd widths, unaligned row starts, every tail length, subset masks,
// and distance ties (equal distances must keep the lowest center index).
// The end-to-end tests assert the same for whole CpaSlic/PpaSlic/HwSlic
// runs through the ISA override.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "color/color_convert.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "dataset/synthetic.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/grid.h"
#include "slic/hw_datapath.h"
#include "slic/iteration_scratch.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/types.h"

namespace sslic {
namespace {

/// Restores the process-wide ISA preference (env/auto detection) on scope
/// exit so tests cannot leak an override into each other.
struct IsaGuard {
  ~IsaGuard() { simd::reset_preferred_isa(); }
};

/// The vector backends this binary can both execute and has compiled in.
std::vector<simd::Isa> testable_vector_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

TEST(SimdDispatch, ParseNamesRoundTrip) {
  // Every enum value must round-trip through its name — including ISAs this
  // binary or CPU cannot run (parsing is pure string handling).
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
        simd::Isa::kAvx512, simd::Isa::kNeon}) {
    simd::Isa parsed = simd::Isa::kScalar;
    ASSERT_TRUE(simd::parse_isa(simd::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa parsed = simd::Isa::kAvx2;
  EXPECT_TRUE(simd::parse_isa("off", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar);
  EXPECT_TRUE(simd::parse_isa("NONE", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar);
  // Unknown names fail and leave the output untouched.
  parsed = simd::Isa::kAvx2;
  EXPECT_FALSE(simd::parse_isa("avx1024", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kAvx2);
}

TEST(SimdDispatch, OverrideClampsToCpuAndBinary) {
  IsaGuard guard;
  simd::set_preferred_isa(simd::Isa::kScalar);
  EXPECT_EQ(kernels::active_isa(), simd::Isa::kScalar);
  // Requesting more than the CPU/binary offers degrades, never crashes —
  // for every rung of the ladder.
  for (const simd::Isa want :
       {simd::Isa::kSse2, simd::Isa::kAvx2, simd::Isa::kAvx512,
        simd::Isa::kNeon}) {
    simd::set_preferred_isa(want);
    const simd::Isa resolved = kernels::active_isa();
    EXPECT_TRUE(kernels::backend_compiled(resolved))
        << "want=" << simd::isa_name(want);
    EXPECT_TRUE(simd::cpu_supports(resolved))
        << "want=" << simd::isa_name(want);
  }
  // A scalar table is always available.
  EXPECT_TRUE(kernels::backend_compiled(simd::Isa::kScalar));
}

TEST(SimdDispatch, ClampIsDeterministicAndReportedViaTelemetry) {
  // Requesting an ISA the CPU or binary lacks (e.g. SSLIC_SIMD=avx512 on an
  // AVX2-only host) must clamp downward to the same effective ISA on every
  // resolution, and that effective ISA must be visible to telemetry readers
  // as the `sslic.simd.active_isa` gauge.
  IsaGuard guard;
  auto& registry = telemetry::MetricsRegistry::global();
  for (const simd::Isa want :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
        simd::Isa::kAvx512, simd::Isa::kNeon}) {
    simd::set_preferred_isa(want);
    const simd::Isa first = kernels::active_isa();
    const simd::Isa second = kernels::active_isa();
    ASSERT_EQ(first, second) << "want=" << simd::isa_name(want);
    // The clamp never resolves upward past the request on the x86 ladder,
    // and always lands on something this machine can actually run.
    EXPECT_TRUE(kernels::backend_compiled(first))
        << "want=" << simd::isa_name(want);
    EXPECT_TRUE(simd::cpu_supports(first)) << "want=" << simd::isa_name(want);
    EXPECT_EQ(registry.gauge("sslic.simd.active_isa").value(),
              static_cast<double>(first))
        << "want=" << simd::isa_name(want);
  }
  // String overrides clamp identically (the SSLIC_SIMD env path).
  simd::set_preferred_isa("avx512");
  const simd::Isa via_string = kernels::active_isa();
  simd::set_preferred_isa(simd::Isa::kAvx512);
  EXPECT_EQ(kernels::active_isa(), via_string);
  EXPECT_EQ(registry.gauge("sslic.simd.active_isa").value(),
            static_cast<double>(via_string));
}

/// Shared fuzz fixture state: planar float rows with a deliberately odd
/// amount of slack so the kernels see arbitrary (unaligned) row starts.
struct FloatRows {
  std::vector<float> L, a, b;
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  std::vector<std::uint8_t> active;
};

FloatRows make_float_rows(Rng& rng, std::size_t size) {
  FloatRows rows;
  rows.L.resize(size);
  rows.a.resize(size);
  rows.b.resize(size);
  rows.min_dist.resize(size);
  rows.labels.resize(size);
  rows.active.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    rows.L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
    rows.a[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
    rows.b[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
    // Mix of "fresh" (infinity) and already-tight running minima so both
    // branches of the compare are exercised.
    rows.min_dist[i] = rng.next_bool(0.3)
                           ? std::numeric_limits<double>::infinity()
                           : rng.next_double(0.0, 4000.0);
    rows.labels[i] = rng.next_int(0, 500);
    rows.active[i] = rng.next_bool(0.6) ? 1 : 0;
  }
  return rows;
}

kernels::CenterOperand random_center(Rng& rng, int max_xy,
                                     std::int32_t index) {
  return {rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(max_xy)),
          rng.next_double(0.0, static_cast<double>(max_xy)), index};
}

TEST(SimdKernels, AssignCenterRowMatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0x51c0ffee);
  for (int trial = 0; trial < 300; ++trial) {
    // Odd widths and every tail length 0..lanes-1 (widths 1..37 cover both
    // 2-, 4-, and 8-lane tails), plus an arbitrary start offset so rows are
    // unaligned relative to the allocation.
    const std::int32_t count = rng.next_int(1, 37);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::int32_t x0 = rng.next_int(0, 400);
    const double y = static_cast<double>(rng.next_int(0, 300));
    const double weight = rng.next_double(0.001, 2.0);
    const kernels::CenterOperand center =
        random_center(rng, 400, rng.next_int(0, 99));
    const FloatRows base =
        make_float_rows(rng, offset + static_cast<std::size_t>(count));

    FloatRows ref = base;
    scalar.assign_center_row(ref.L.data() + offset, ref.a.data() + offset,
                             ref.b.data() + offset, x0, count, y, center,
                             weight, ref.min_dist.data() + offset,
                             ref.labels.data() + offset);
    for (const simd::Isa isa : isas) {
      FloatRows got = base;
      kernels::table_for(isa).assign_center_row(
          got.L.data() + offset, got.a.data() + offset, got.b.data() + offset,
          x0, count, y, center, weight, got.min_dist.data() + offset,
          got.labels.data() + offset);
      ASSERT_EQ(std::memcmp(got.min_dist.data(), ref.min_dist.data(),
                            ref.min_dist.size() * sizeof(double)),
                0)
          << "min_dist diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial;
      ASSERT_EQ(got.labels, ref.labels)
          << "labels diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial;
    }
  }
}

TEST(SimdKernels, AssignCenterRowTieKeepsExistingLabel) {
  // Re-running the identical center with a different index produces equal
  // distances everywhere; the strict `<` must keep the first label.
  const std::vector<simd::Isa> isas = testable_vector_isas();
  Rng rng(7);
  const std::int32_t count = 23;
  const FloatRows base = make_float_rows(rng, static_cast<std::size_t>(count));
  kernels::CenterOperand center = random_center(rng, 100, 3);
  std::vector<simd::Isa> all = isas;
  all.push_back(simd::Isa::kScalar);
  for (const simd::Isa isa : all) {
    FloatRows rows = base;
    const kernels::KernelTable& kt = kernels::table_for(isa);
    kt.assign_center_row(rows.L.data(), rows.a.data(), rows.b.data(), 5, count,
                         9.0, center, 0.5, rows.min_dist.data(),
                         rows.labels.data());
    const std::vector<std::int32_t> first = rows.labels;
    kernels::CenterOperand twin = center;
    twin.index = 77;
    kt.assign_center_row(rows.L.data(), rows.a.data(), rows.b.data(), 5, count,
                         9.0, twin, 0.5, rows.min_dist.data(),
                         rows.labels.data());
    EXPECT_EQ(rows.labels, first) << "isa=" << simd::isa_name(isa);
  }
}

/// Row-wide candidate-kernel inputs: a non-decreasing grid-column map over
/// `size` elements and 3 operands per grid column (rows gy-1, gy, gy+1).
struct ColumnTable {
  std::int32_t ncols = 1;
  std::vector<std::int32_t> cols;
  std::vector<kernels::CenterOperand> ops;
};

/// Random columns in [0, ncols) — sorted, so a vector block may span one
/// column or jump across several — and random operands. With `twins`, one
/// operand is copied to another column/row slot under a different index,
/// so equal distances must resolve to the earlier slot in every lane.
ColumnTable random_column_table(Rng& rng, std::size_t size, int max_xy,
                                bool twins) {
  ColumnTable t;
  t.ncols = rng.next_int(1, 6);
  t.cols.resize(size);
  for (auto& c : t.cols) c = rng.next_int(0, t.ncols - 1);
  std::sort(t.cols.begin(), t.cols.end());
  t.ops.resize(3 * static_cast<std::size_t>(t.ncols));
  for (std::size_t k = 0; k < t.ops.size(); ++k)
    t.ops[k] = random_center(rng, max_xy, static_cast<std::int32_t>(k * 11));
  if (twins && t.ops.size() >= 2) {
    const auto from = static_cast<std::size_t>(
        rng.next_int(0, static_cast<int>(t.ops.size()) - 2));
    const auto to = static_cast<std::size_t>(rng.next_int(
        static_cast<int>(from) + 1, static_cast<int>(t.ops.size()) - 1));
    t.ops[to] = t.ops[from];
    t.ops[to].index = 999;
  }
  return t;
}

TEST(SimdKernels, AssignCandidatesRowMatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0xbadc0de);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int32_t count = rng.next_int(1, 37);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::size_t size = offset + static_cast<std::size_t>(count);
    const std::int32_t x0 = rng.next_int(0, 400);
    const double y = static_cast<double>(rng.next_int(0, 300));
    const double weight = rng.next_double(0.001, 2.0);
    const ColumnTable table =
        random_column_table(rng, size, 400, rng.next_bool(0.5));
    const FloatRows base = make_float_rows(rng, size);
    // Mask modes: all pixels (null), random subset, every pixel masked off.
    const int mask_mode = rng.next_int(0, 2);

    FloatRows ref = base;
    if (mask_mode == 2)
      std::fill(ref.active.begin(), ref.active.end(), std::uint8_t{0});
    const std::uint8_t* ref_mask =
        mask_mode == 0 ? nullptr : ref.active.data() + offset;
    scalar.assign_candidates_row(
        ref.L.data() + offset, ref.a.data() + offset, ref.b.data() + offset,
        table.cols.data() + offset, x0, 1, count, y, table.ops.data(),
        table.ncols, weight, ref_mask, ref.labels.data() + offset);
    for (const simd::Isa isa : isas) {
      FloatRows got = base;
      if (mask_mode == 2)
        std::fill(got.active.begin(), got.active.end(), std::uint8_t{0});
      const std::uint8_t* got_mask =
          mask_mode == 0 ? nullptr : got.active.data() + offset;
      kernels::table_for(isa).assign_candidates_row(
          got.L.data() + offset, got.a.data() + offset, got.b.data() + offset,
          table.cols.data() + offset, x0, 1, count, y, table.ops.data(),
          table.ncols, weight, got_mask, got.labels.data() + offset);
      ASSERT_EQ(got.labels, ref.labels)
          << "labels diverged, isa=" << simd::isa_name(isa)
          << " trial=" << trial << " mask_mode=" << mask_mode;
    }
  }
}

TEST(SimdKernels, StridedCandidatesAndAccumulateMatchScalarExactly) {
  // Subset-major runs (PpaSlic) feed the kernels pixels x_step columns
  // apart. Every backend must reproduce the scalar labels and sigma bytes
  // for every stride the schedules use, every run length from empty through
  // several vector blocks plus tails, and misaligned run starts.
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0x5717de);
  for (const std::int32_t x_step : {1, 2, 3, 5}) {
    for (std::int32_t count = 0; count <= 24; ++count) {
      for (int trial = 0; trial < 6; ++trial) {
        const auto offset = static_cast<std::size_t>(rng.next_int(0, 7));
        const std::size_t size = offset + static_cast<std::size_t>(count);
        const std::int32_t x0 = rng.next_int(0, 300);
        const std::int32_t y = rng.next_int(0, 300);
        const double weight = rng.next_double(0.001, 2.0);
        const ColumnTable table =
            random_column_table(rng, size, 400, rng.next_bool(0.5));
        const FloatRows base = make_float_rows(rng, size);
        // A null mask (PpaSlic) or a random subset mask.
        const bool masked = rng.next_bool(0.5);

        FloatRows ref = base;
        scalar.assign_candidates_row(
            ref.L.data() + offset, ref.a.data() + offset,
            ref.b.data() + offset, table.cols.data() + offset, x0, x_step,
            count, static_cast<double>(y), table.ops.data(), table.ncols,
            weight, masked ? ref.active.data() + offset : nullptr,
            ref.labels.data() + offset);
        // Few distinct labels, so the accumulator sees multi-pixel runs.
        std::vector<std::int32_t> acc_labels(base.labels.size());
        for (auto& label : acc_labels) label = rng.next_int(0, 3);
        std::vector<Sigma> ref_sigmas(4);
        scalar.accumulate_row(base.L.data() + offset, base.a.data() + offset,
                              base.b.data() + offset, x0, x_step, count, y,
                              acc_labels.data() + offset, ref_sigmas.data());

        // The per-pixel reference: Sigma::add at x = x0 + x_step * i.
        std::vector<Sigma> naive(4);
        for (std::int32_t i = 0; i < count; ++i) {
          const auto at = offset + static_cast<std::size_t>(i);
          naive[static_cast<std::size_t>(acc_labels[at])].add(
              LabF{base.L[at], base.a[at], base.b[at]}, x0 + x_step * i, y);
        }
        ASSERT_EQ(std::memcmp(naive.data(), ref_sigmas.data(),
                              naive.size() * sizeof(Sigma)),
                  0)
            << "scalar accumulate vs Sigma::add, x_step=" << x_step
            << " count=" << count;

        for (const simd::Isa isa : isas) {
          const kernels::KernelTable& vec = kernels::table_for(isa);
          FloatRows got = base;
          vec.assign_candidates_row(
              got.L.data() + offset, got.a.data() + offset,
              got.b.data() + offset, table.cols.data() + offset, x0, x_step,
              count, static_cast<double>(y), table.ops.data(), table.ncols,
              weight, masked ? got.active.data() + offset : nullptr,
              got.labels.data() + offset);
          ASSERT_EQ(got.labels, ref.labels)
              << "labels diverged, isa=" << simd::isa_name(isa)
              << " x_step=" << x_step << " count=" << count
              << " offset=" << offset;
          std::vector<Sigma> sigmas(4);
          vec.accumulate_row(base.L.data() + offset, base.a.data() + offset,
                             base.b.data() + offset, x0, x_step, count, y,
                             acc_labels.data() + offset, sigmas.data());
          ASSERT_EQ(std::memcmp(sigmas.data(), ref_sigmas.data(),
                                sigmas.size() * sizeof(Sigma)),
                    0)
              << "sigmas diverged, isa=" << simd::isa_name(isa)
              << " x_step=" << x_step << " count=" << count
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdKernels, StridedCandidatesRowEqualsNaturalRowAtSameColumns) {
  // A run of pixels x_step apart must label each pixel exactly as the
  // natural (x_step 1) kernel does when called on that single column:
  // the distance of pixel (x, y) depends on x only through its exact
  // double value.
  const kernels::KernelTable& scalar = kernels::scalar_table();
  Rng rng(0x1dea);
  for (const std::int32_t x_step : {2, 3, 5}) {
    const std::int32_t count = 19;
    const std::int32_t x0 = 4;
    const ColumnTable table = random_column_table(
        rng, static_cast<std::size_t>(count), 100, false);
    const FloatRows rows = make_float_rows(rng, static_cast<std::size_t>(count));
    std::vector<std::int32_t> strided(static_cast<std::size_t>(count), -1);
    scalar.assign_candidates_row(rows.L.data(), rows.a.data(), rows.b.data(),
                                 table.cols.data(), x0, x_step, count, 7.0,
                                 table.ops.data(), table.ncols, 0.3, nullptr,
                                 strided.data());
    for (std::int32_t i = 0; i < count; ++i) {
      const auto at = static_cast<std::size_t>(i);
      std::int32_t single = -1;
      scalar.assign_candidates_row(&rows.L[at], &rows.a[at], &rows.b[at],
                                   &table.cols[at], x0 + x_step * i, 1, 1, 7.0,
                                   table.ops.data(), table.ncols, 0.3, nullptr,
                                   &single);
      EXPECT_EQ(strided[at], single) << "x_step=" << x_step << " i=" << i;
    }
  }
}

/// Grid column of x under the PPA tile partition [gx*w/nx, (gx+1)*w/nx).
int tile_column(const CenterGrid& grid, int x) {
  int gx = 0;
  while ((gx + 1) * grid.width() / grid.nx() <= x) ++gx;
  return gx;
}

TEST(SimdKernels, RowWideCandidatesMatchPerPixelCandidateLists) {
  // The row-wide kernel against the per-pixel definition of PPA: each
  // pixel walks its own cell's build_candidate_map list (9 slots, strict
  // `<`, earliest slot wins ties) with the kernels' operation sequence.
  // Geometries give cells 1-24 px wide (so 8-lane blocks span one, two or
  // many cells), nx = 1 and 2, and runs touching both border columns; every
  // backend, x_step 1-5, run lengths 0-40, misaligned starts, and with and
  // without a subset mask. build_column_map and fill_column_operands build
  // the kernel inputs exactly as PpaSlic does.
  std::vector<simd::Isa> isas = testable_vector_isas();
  isas.insert(isas.begin(), simd::Isa::kScalar);
  struct Geometry {
    int width;
    int height;
    int superpixels;
  };
  const Geometry geometries[] = {
      {17, 9, 1},     {40, 20, 2},     {48, 24, 2},    {23, 23, 4},    {48, 6, 8},
      {16, 16, 64},   {30, 10, 300},   {97, 31, 200},  {120, 40, 40},
      {200, 50, 100}, {301, 97, 2000}, {192, 108, 50}, {64, 64, 4096}};
  Rng rng(0xc0175);
  for (const Geometry& g : geometries) {
    const CenterGrid grid(g.width, g.height, g.superpixels);
    const std::vector<CandidateList> candidates = build_candidate_map(grid);
    std::vector<ClusterCenter> centers(
        static_cast<std::size_t>(grid.num_centers()));
    for (auto& c : centers) {
      c = {rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
           rng.next_double(-90.0, 90.0),
           rng.next_double(0.0, static_cast<double>(g.width)),
           rng.next_double(0.0, static_cast<double>(g.height))};
    }
    // Twin centers (same operands, different index) across neighbouring
    // cells, so ties between distinct candidates occur.
    for (std::size_t k = 1; k < centers.size(); k += 3)
      centers[k] = centers[k - 1];
    std::vector<kernels::CenterOperand> ops(
        3 * static_cast<std::size_t>(grid.nx()));
    std::vector<std::int32_t> natural_map;
    build_column_map(grid, 1, natural_map);
    for (int x = 0; x < g.width; ++x)
      ASSERT_EQ(natural_map[static_cast<std::size_t>(x)], tile_column(grid, x))
          << "w=" << g.width << " nx=" << grid.nx() << " x=" << x;

    for (const std::int32_t x_step : {1, 2, 3, 4, 5}) {
      // The subset-major map places column x at its permuted position.
      std::vector<std::int32_t> permuted_map;
      build_column_map(grid, x_step, permuted_map);
      const SubsetMajorRow layout{g.width, x_step};
      for (int x = 0; x < g.width; ++x)
        ASSERT_EQ(permuted_map[static_cast<std::size_t>(layout.position(x))],
                  tile_column(grid, x));

      for (int trial = 0; trial < 8; ++trial) {
        const int gy = rng.next_int(0, grid.ny() - 1);
        fill_column_operands(grid, centers, gy, ops.data());
        const double y = static_cast<double>(rng.next_int(0, g.height - 1));
        const double weight = rng.next_double(0.001, 2.0);
        // A run x0, x0 + x_step, ... inside the raster; trial 0 starts at
        // the left border, trial 1 ends at the right border.
        const std::int32_t x0 =
            trial == 0 ? 0 : rng.next_int(0, g.width - 1);
        const std::int32_t max_count = (g.width - 1 - x0) / x_step + 1;
        std::int32_t count = std::min(rng.next_int(0, 40), max_count);
        if (trial == 1) count = max_count;
        const auto offset = static_cast<std::size_t>(rng.next_int(0, 7));
        const std::size_t size = offset + static_cast<std::size_t>(count);
        const FloatRows base = make_float_rows(rng, size);
        std::vector<std::int32_t> cols(size, 0);
        for (std::int32_t i = 0; i < count; ++i) {
          cols[offset + static_cast<std::size_t>(i)] =
              natural_map[static_cast<std::size_t>(x0 + x_step * i)];
        }
        const bool masked = rng.next_bool(0.5);

        // Per-pixel reference.
        std::vector<std::int32_t> want = base.labels;
        for (std::int32_t i = 0; i < count; ++i) {
          const std::size_t at = offset + static_cast<std::size_t>(i);
          if (masked && base.active[at] == 0) continue;
          const int x = x0 + x_step * i;
          const CandidateList& list = candidates[static_cast<std::size_t>(
              grid.center_index(tile_column(grid, x), gy))];
          double best = std::numeric_limits<double>::infinity();
          std::int32_t best_idx = list[0];
          for (const std::int32_t index : list) {
            const ClusterCenter& c = centers[static_cast<std::size_t>(index)];
            const double dl = static_cast<double>(base.L[at]) - c.L;
            const double da = static_cast<double>(base.a[at]) - c.a;
            const double db = static_cast<double>(base.b[at]) - c.b;
            const double dx = static_cast<double>(x) - c.x;
            const double dy = y - c.y;
            const double d = ((dl * dl + da * da) + db * db) +
                             weight * (dx * dx + dy * dy);
            if (d < best) {
              best = d;
              best_idx = index;
            }
          }
          want[at] = best_idx;
        }

        for (const simd::Isa isa : isas) {
          FloatRows got = base;
          kernels::table_for(isa).assign_candidates_row(
              got.L.data() + offset, got.a.data() + offset,
              got.b.data() + offset, cols.data() + offset, x0, x_step, count,
              y, ops.data(), grid.nx(), weight,
              masked ? got.active.data() + offset : nullptr,
              got.labels.data() + offset);
          ASSERT_EQ(got.labels, want)
              << "isa=" << simd::isa_name(isa) << " w=" << g.width
              << " nx=" << grid.nx() << " x_step=" << x_step
              << " x0=" << x0 << " count=" << count << " gy=" << gy
              << " masked=" << masked;
        }
      }
    }
  }
}

TEST(SimdKernels, AssignCandidatesRowU8MatchesScalarExactly) {
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();

  Rng rng(0x8b17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int32_t count = rng.next_int(1, 41);
    const std::size_t offset = static_cast<std::size_t>(rng.next_int(0, 7));
    const std::size_t size = offset + static_cast<std::size_t>(count);
    const std::int32_t x0 = rng.next_int(0, 600);
    const std::int32_t y = rng.next_int(0, 400);
    const std::int32_t weight_q8 = rng.next_int(1, 4096);
    const std::int32_t dist_bits = rng.next_bool(0.5) ? 0 : rng.next_int(4, 16);
    const std::int32_t dist_shift = dist_bits == 0 ? 0 : rng.next_int(0, 10);
    const std::int32_t ncand = rng.next_int(1, 9);
    std::array<kernels::HwCenterOperand, 9> cands;
    for (std::int32_t k = 0; k < ncand; ++k) {
      cands[static_cast<std::size_t>(k)] = {
          rng.next_int(0, 255), rng.next_int(0, 255), rng.next_int(0, 255),
          rng.next_int(0, 700), rng.next_int(0, 500), k * 7};
    }
    if (ncand >= 2 && rng.next_bool(0.5)) {
      kernels::HwCenterOperand dup = cands[0];
      dup.index = 888;
      cands[static_cast<std::size_t>(ncand - 1)] = dup;
    }
    std::vector<std::uint8_t> L(size), a(size), b(size), active(size);
    std::vector<std::int32_t> labels(size);
    for (std::size_t i = 0; i < size; ++i) {
      L[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      a[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      b[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      active[i] = rng.next_bool(0.6) ? 1 : 0;
      labels[i] = rng.next_int(0, 500);
    }
    const int mask_mode = rng.next_int(0, 1);
    const std::uint8_t* mask = mask_mode == 0 ? nullptr : active.data() + offset;

    std::vector<std::int32_t> ref = labels;
    scalar.assign_candidates_row_u8(L.data() + offset, a.data() + offset,
                                    b.data() + offset, x0, count, y,
                                    cands.data(), ncand, weight_q8, dist_bits,
                                    dist_shift, mask, ref.data() + offset);
    for (const simd::Isa isa : isas) {
      std::vector<std::int32_t> got = labels;
      kernels::table_for(isa).assign_candidates_row_u8(
          L.data() + offset, a.data() + offset, b.data() + offset, x0, count,
          y, cands.data(), ncand, weight_q8, dist_bits, dist_shift, mask,
          got.data() + offset);
      ASSERT_EQ(got, ref) << "labels diverged, isa=" << simd::isa_name(isa)
                          << " trial=" << trial;
    }
  }
}

TEST(SimdKernels, SrgbToLabRowTailsAndOffsetsMatchScalar) {
  // Every count from 0 to three of the widest vectors (8 lanes), at input
  // strides 1-5, from misaligned input and output starts; the floats past
  // `count` in each plane must stay untouched. Dark channels put lanes on
  // both sides of lab_f's branch.
  const std::vector<simd::Isa> isas = testable_vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector backend compiled for this CPU";
  const kernels::KernelTable& scalar = kernels::scalar_table();
  const double* gamma = srgb_gamma_table().data();
  constexpr std::int32_t kMaxCount = 3 * 8;
  constexpr std::size_t kSlack = 8;
  static constexpr float kSentinel = -7.0f;

  struct Planes {
    std::vector<float> L, a, b;
    explicit Planes(std::size_t n)
        : L(n, kSentinel), a(n, kSentinel), b(n, kSentinel) {}
  };
  Rng rng(0xc0105);
  for (std::int32_t x_step = 1; x_step <= 5; ++x_step) {
    const auto step = static_cast<std::size_t>(x_step);
    for (std::int32_t count = 0; count <= kMaxCount; ++count) {
      const auto n = static_cast<std::size_t>(count);
      for (int trial = 0; trial < 8; ++trial) {
        const auto in_off = static_cast<std::size_t>(rng.next_int(0, 7));
        const auto out_off = static_cast<std::size_t>(rng.next_int(0, 7));
        // Exactly the pixels the run spans: a read past the last one is
        // out of bounds (ASan catches it).
        std::vector<Rgb8> rgb(in_off + (n == 0 ? 0 : step * (n - 1) + 1));
        for (Rgb8& px : rgb) {
          const int hi = rng.next_bool(0.5) ? 24 : 255;
          px = {static_cast<std::uint8_t>(rng.next_int(0, hi)),
                static_cast<std::uint8_t>(rng.next_int(0, hi)),
                static_cast<std::uint8_t>(rng.next_int(0, hi))};
        }
        const std::size_t size = out_off + n + kSlack;
        Planes ref(size);
        scalar.srgb_to_lab_row(rgb.data() + in_off, x_step, count, gamma,
                               ref.L.data() + out_off, ref.a.data() + out_off,
                               ref.b.data() + out_off);
        for (std::size_t i = 0; i < size; ++i) {
          const bool written = i >= out_off && i < out_off + n;
          if (!written) {
            ASSERT_EQ(ref.L[i], kSentinel) << "scalar wrote L[" << i << "]";
            ASSERT_EQ(ref.a[i], kSentinel) << "scalar wrote a[" << i << "]";
            ASSERT_EQ(ref.b[i], kSentinel) << "scalar wrote b[" << i << "]";
            continue;
          }
          const LabF want = srgb_to_lab(rgb[in_off + step * (i - out_off)]);
          ASSERT_EQ((LabF{ref.L[i], ref.a[i], ref.b[i]}), want)
              << "scalar kernel vs reference, x_step=" << x_step
              << " count=" << count << " i=" << i - out_off;
        }
        for (const simd::Isa isa : isas) {
          Planes got(size);
          kernels::table_for(isa).srgb_to_lab_row(
              rgb.data() + in_off, x_step, count, gamma,
              got.L.data() + out_off, got.a.data() + out_off,
              got.b.data() + out_off);
          const auto bytes = size * sizeof(float);
          ASSERT_EQ(std::memcmp(got.L.data(), ref.L.data(), bytes), 0)
              << "L isa=" << simd::isa_name(isa) << " x_step=" << x_step
              << " count=" << count << " in_off=" << in_off
              << " out_off=" << out_off;
          ASSERT_EQ(std::memcmp(got.a.data(), ref.a.data(), bytes), 0)
              << "a isa=" << simd::isa_name(isa) << " x_step=" << x_step
              << " count=" << count;
          ASSERT_EQ(std::memcmp(got.b.data(), ref.b.data(), bytes), 0)
              << "b isa=" << simd::isa_name(isa) << " x_step=" << x_step
              << " count=" << count;
        }
      }
    }
  }
}

/// End-to-end: a full segmentation must be byte-identical under every ISA.
class SimdEndToEnd : public ::testing::Test {
 protected:
  static RgbImage test_image() {
    SyntheticParams params;
    params.width = 160;
    params.height = 120;
    return generate_synthetic(params, 0x5eed).image;
  }
};

TEST_F(SimdEndToEnd, CpaLabelsAndCentersIdenticalAcrossIsas) {
  // Full SLIC, the subsampled variant (persistent min-distance plane), and
  // a large-spacing geometry (K=2 on 160x120: S^2 = 9600 >= 96^2, windows
  // far wider than any vector) must all be byte-identical on every backend.
  IsaGuard guard;
  const RgbImage image = test_image();
  struct Case {
    int superpixels;
    double ratio;
  };
  for (const Case c : {Case{60, 1.0}, Case{60, 0.25}, Case{2, 1.0}}) {
    SlicParams params;
    params.num_superpixels = c.superpixels;
    params.max_iterations = 4;
    params.subsample_ratio = c.ratio;

    simd::set_preferred_isa(simd::Isa::kScalar);
    const Segmentation ref = CpaSlic(params).segment(image);
    for (const simd::Isa isa : testable_vector_isas()) {
      simd::set_preferred_isa(isa);
      const Segmentation got = CpaSlic(params).segment(image);
      ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
          << "isa=" << simd::isa_name(isa) << " K=" << c.superpixels
          << " ratio=" << c.ratio;
      ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                            ref.centers.size() * sizeof(ClusterCenter)),
                0)
          << "isa=" << simd::isa_name(isa) << " K=" << c.superpixels
          << " ratio=" << c.ratio;
    }
  }
}

TEST_F(SimdEndToEnd, PpaLabelsAndCentersIdenticalAcrossIsas) {
  IsaGuard guard;
  const RgbImage image = test_image();
  SlicParams params;
  params.num_superpixels = 60;
  params.max_iterations = 4;
  params.subsample_ratio = 0.25;

  simd::set_preferred_isa(simd::Isa::kScalar);
  const Segmentation ref = PpaSlic(params).segment(image);
  for (const simd::Isa isa : testable_vector_isas()) {
    simd::set_preferred_isa(isa);
    const Segmentation got = PpaSlic(params).segment(image);
    ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
        << "isa=" << simd::isa_name(isa);
    ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                          ref.centers.size() * sizeof(ClusterCenter)),
              0)
        << "isa=" << simd::isa_name(isa);
  }
}

TEST_F(SimdEndToEnd, HwLabelsAndCentersIdenticalAcrossIsas) {
  IsaGuard guard;
  const RgbImage image = test_image();
  HwConfig config;
  config.num_superpixels = 60;
  config.iterations = 4;
  config.subsample_ratio = 0.25;
  config.distance_register_bits = 10;

  simd::set_preferred_isa(simd::Isa::kScalar);
  const Segmentation ref = HwSlic(config).segment(image);
  for (const simd::Isa isa : testable_vector_isas()) {
    simd::set_preferred_isa(isa);
    const Segmentation got = HwSlic(config).segment(image);
    ASSERT_EQ(got.labels.pixels(), ref.labels.pixels())
        << "isa=" << simd::isa_name(isa);
    ASSERT_EQ(std::memcmp(got.centers.data(), ref.centers.data(),
                          ref.centers.size() * sizeof(ClusterCenter)),
              0)
        << "isa=" << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace sslic
