// Tests for SLIC infrastructure: center grid, static 9-candidate tiling,
// subset schedules, and connectivity enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "image/planar.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/subset_schedule.h"

namespace sslic {
namespace {

// --------------------------------------------------------------- CenterGrid

TEST(CenterGrid, SpacingIsSqrtNOverK) {
  const CenterGrid grid(100, 100, 25);
  EXPECT_DOUBLE_EQ(grid.spacing(), std::sqrt(10000.0 / 25.0));
  EXPECT_EQ(grid.nx(), 5);
  EXPECT_EQ(grid.ny(), 5);
  EXPECT_EQ(grid.num_centers(), 25);
}

TEST(CenterGrid, HdAt5000MatchesPaperGeometry) {
  // 1920x1080 with K = 5000: S = 20.36, 94x53 grid (Table 4 setting).
  const CenterGrid grid(1920, 1080, 5000);
  EXPECT_NEAR(grid.spacing(), 20.36, 0.01);
  EXPECT_EQ(grid.nx(), 94);
  EXPECT_EQ(grid.ny(), 53);
  EXPECT_NEAR(grid.num_centers(), 5000, 50);
}

TEST(CenterGrid, CellLookupCoversImage) {
  const CenterGrid grid(97, 53, 30);  // awkward sizes
  for (int y = 0; y < 53; ++y) {
    for (int x = 0; x < 97; ++x) {
      const int gx = grid.cell_x(x);
      const int gy = grid.cell_y(y);
      EXPECT_GE(gx, 0);
      EXPECT_LT(gx, grid.nx());
      EXPECT_GE(gy, 0);
      EXPECT_LT(gy, grid.ny());
    }
  }
}

TEST(CenterGrid, CellLookupMonotone) {
  const CenterGrid grid(100, 60, 24);
  for (int x = 1; x < 100; ++x) EXPECT_GE(grid.cell_x(x), grid.cell_x(x - 1));
  for (int y = 1; y < 60; ++y) EXPECT_GE(grid.cell_y(y), grid.cell_y(y - 1));
}

TEST(CenterGrid, CellColumnBeginsMatchCellLookup) {
  // cell_x_begin bounds exactly the columns cell_x maps to each grid column,
  // including widths where the cells and the PPA tiles (gx * w / nx) split
  // at different columns; cell_y_begin does the same for rows.
  for (const auto& [w, h, k] : {std::array<int, 3>{97, 53, 30},
                                std::array<int, 3>{123, 77, 60},
                                std::array<int, 3>{4, 37, 6},
                                std::array<int, 3>{1920, 1080, 5000}}) {
    const CenterGrid grid(w, h, k);
    EXPECT_EQ(grid.cell_x_begin(0), 0);
    EXPECT_EQ(grid.cell_x_begin(grid.nx()), w);
    for (int gx = 0; gx < grid.nx(); ++gx) {
      for (int x = grid.cell_x_begin(gx); x < grid.cell_x_begin(gx + 1); ++x)
        ASSERT_EQ(grid.cell_x(x), gx) << w << "x" << h << " x=" << x;
    }
    EXPECT_EQ(grid.cell_y_begin(0), 0);
    EXPECT_EQ(grid.cell_y_begin(grid.ny()), h);
    for (int gy = 0; gy < grid.ny(); ++gy) {
      for (int y = grid.cell_y_begin(gy); y < grid.cell_y_begin(gy + 1); ++y)
        ASSERT_EQ(grid.cell_y(y), gy) << w << "x" << h << " y=" << y;
    }
  }
}

TEST(CenterGrid, CenterPositionsInsideImage) {
  const CenterGrid grid(64, 48, 12);
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      EXPECT_GT(grid.center_pos_x(gx), 0.0);
      EXPECT_LT(grid.center_pos_x(gx), 64.0);
      EXPECT_GT(grid.center_pos_y(gy), 0.0);
      EXPECT_LT(grid.center_pos_y(gy), 48.0);
    }
  }
}

TEST(CenterGrid, TinyImageStillValid) {
  const CenterGrid grid(16, 16, 1);
  EXPECT_EQ(grid.num_centers(), 1);
  EXPECT_EQ(grid.cell_x(15), 0);
}

// ------------------------------------------------------------ seed_centers

TEST(SeedCenters, SamplesColorsAtCenters) {
  LabImage lab(40, 40, LabF{10.0f, 0.0f, 0.0f});
  const CenterGrid grid(40, 40, 4);
  const auto centers = seed_centers(grid, lab, /*perturb=*/false);
  ASSERT_EQ(centers.size(), 4u);
  for (const auto& c : centers) {
    EXPECT_DOUBLE_EQ(c.L, 10.0);
    EXPECT_GE(c.x, 0.0);
    EXPECT_LT(c.x, 40.0);
  }
}

TEST(SeedCenters, PerturbationMovesOffEdges) {
  // Place a step edge so the nominal center position sits on a
  // high-gradient pixel; perturbation must move it to the low-gradient
  // side of its 3x3 neighbourhood.
  LabImage lab(30, 30, LabF{20.0f, 0.0f, 0.0f});
  const CenterGrid grid(30, 30, 1);
  const int cx = static_cast<int>(grid.center_pos_x(0));
  for (int y = 0; y < 30; ++y)
    for (int x = cx; x < 30; ++x) lab(x, y) = {90.0f, 0.0f, 0.0f};
  const auto centers = seed_centers(grid, lab, /*perturb=*/true);
  // Gradient is zero two columns away from the edge but large at cx-1..cx.
  EXPECT_NE(static_cast<int>(centers[0].x), cx);
  EXPECT_NE(static_cast<int>(centers[0].x), cx - 1);
}

TEST(SeedCenters, PerturbationBoundedTo3x3) {
  LabImage lab(60, 60);
  for (int y = 0; y < 60; ++y)
    for (int x = 0; x < 60; ++x)
      lab(x, y) = {static_cast<float>((x * 7 + y * 13) % 50), 0.0f, 0.0f};
  const CenterGrid grid(60, 60, 9);
  const auto plain = seed_centers(grid, lab, false);
  const auto perturbed = seed_centers(grid, lab, true);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_LE(std::abs(plain[i].x - perturbed[i].x), 1.0);
    EXPECT_LE(std::abs(plain[i].y - perturbed[i].y), 1.0);
  }
}

TEST(SeedCenters, FromPlanesMatchesInterleavedAtEveryStride) {
  // The frame path seeds from the planes, evaluating the gradient only
  // around each seed; it must pick the same positions and colours as the
  // full gradient plane. The geometries put seeds on the image border
  // (K = pixels, 2-pixel edges) and in the interior.
  Rng rng(913);
  struct Case {
    int w, h, k;
  };
  for (const Case& g : {Case{2, 2, 1}, Case{2, 2, 4}, Case{2, 11, 5},
                        Case{11, 2, 5}, Case{3, 3, 9}, Case{7, 5, 35},
                        Case{16, 16, 1}, Case{31, 17, 12}, Case{60, 45, 40}}) {
    LabImage lab(g.w, g.h);
    for (auto& px : lab.pixels())
      px = {static_cast<float>(rng.next_double(0.0, 100.0)),
            static_cast<float>(rng.next_double(-80.0, 80.0)),
            static_cast<float>(rng.next_double(-80.0, 80.0))};
    const CenterGrid grid(g.w, g.h, g.k);
    for (const bool perturb : {false, true}) {
      const auto want = seed_centers(grid, lab, perturb);
      for (int stride = 1; stride <= 4; ++stride) {
        LabPlanes planes;
        split_lab_planes(lab, planes, stride);
        std::vector<ClusterCenter> got;
        seed_centers(grid, planes, perturb, got);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].x, want[i].x) << g.w << "x" << g.h << " K=" << g.k
                                         << " stride=" << stride << " i=" << i;
          EXPECT_EQ(got[i].y, want[i].y) << g.w << "x" << g.h << " i=" << i;
          EXPECT_EQ(got[i].L, want[i].L) << g.w << "x" << g.h << " i=" << i;
          EXPECT_EQ(got[i].a, want[i].a) << g.w << "x" << g.h << " i=" << i;
          EXPECT_EQ(got[i].b, want[i].b) << g.w << "x" << g.h << " i=" << i;
        }
      }
    }
  }
}

// ----------------------------------------------------------- candidate map

TEST(CandidateMap, InteriorTileHas9DistinctNeighbours) {
  const CenterGrid grid(100, 100, 25);  // 5x5 grid
  const auto map = build_candidate_map(grid);
  const CandidateList& mid = map[static_cast<std::size_t>(grid.center_index(2, 2))];
  std::set<std::int32_t> unique(mid.begin(), mid.end());
  EXPECT_EQ(unique.size(), 9u);
  // Must contain the tile's own center and all 8 neighbours.
  EXPECT_TRUE(unique.count(grid.center_index(2, 2)));
  EXPECT_TRUE(unique.count(grid.center_index(1, 1)));
  EXPECT_TRUE(unique.count(grid.center_index(3, 3)));
}

TEST(CandidateMap, CornerTileClampsToDuplicates) {
  const CenterGrid grid(100, 100, 25);
  const auto map = build_candidate_map(grid);
  const CandidateList& corner =
      map[static_cast<std::size_t>(grid.center_index(0, 0))];
  std::set<std::int32_t> unique(corner.begin(), corner.end());
  EXPECT_EQ(unique.size(), 4u);  // clamped: only 2x2 distinct neighbours
  EXPECT_TRUE(unique.count(grid.center_index(0, 0)));
}

TEST(CandidateMap, EveryCandidateValid) {
  const CenterGrid grid(97, 53, 30);
  const auto map = build_candidate_map(grid);
  for (const auto& list : map) {
    for (const auto c : list) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, grid.num_centers());
    }
  }
}

TEST(CandidateMap, CandidatesCoverCpaReach) {
  // Property behind "9 is the minimum number of nearest centers" (Sec 4.2):
  // the initial center of every pixel's own grid cell and all centers whose
  // 2Sx2S window could contain the pixel are among its 9 candidates — the
  // window reaches at most one grid cell away.
  const CenterGrid grid(120, 90, 20);
  const auto map = build_candidate_map(grid);
  for (int y = 0; y < 90; y += 7) {
    for (int x = 0; x < 120; x += 7) {
      const int gx = grid.cell_x(x);
      const int gy = grid.cell_y(y);
      const CandidateList& list =
          map[static_cast<std::size_t>(grid.center_index(gx, gy))];
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = std::clamp(gx + dx, 0, grid.nx() - 1);
          const int ny = std::clamp(gy + dy, 0, grid.ny() - 1);
          const std::int32_t c = grid.center_index(nx, ny);
          EXPECT_NE(std::find(list.begin(), list.end(), c), list.end());
        }
      }
    }
  }
}

TEST(InitialLabels, MatchOwnGridCell) {
  const CenterGrid grid(50, 30, 6);
  const LabelImage labels = initial_labels(grid);
  for (int y = 0; y < 30; ++y)
    for (int x = 0; x < 50; ++x)
      EXPECT_EQ(labels(x, y), grid.center_index(grid.cell_x(x), grid.cell_y(y)));
}

TEST(InitialLabels, RunFillMatchesPerPixelFormulaAtEveryStride) {
  // The run fill against the per-pixel definition, stored subset-major:
  // thin rasters (the grid needs both sides >= 2), K = 1, K near and above
  // the pixel count (empty grid cells), awkward sizes, one worker and four.
  struct ThreadsGuard {
    ~ThreadsGuard() { ThreadPool::set_global_threads(0); }
  } guard;
  struct Case {
    int w, h, k;
  };
  // Reused: each case enters with the previous one's size and each stride
  // with the previous stride's labels, so the fill must resize and
  // overwrite every entry.
  LabelImage labels;
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    for (const Case& g :
         {Case{2, 40, 7}, Case{40, 2, 7}, Case{2, 2, 1}, Case{33, 21, 1},
          Case{9, 7, 63}, Case{9, 7, 200}, Case{97, 53, 30},
          Case{200, 3, 590}, Case{3, 200, 590}}) {
      const CenterGrid grid(g.w, g.h, g.k);
      for (int stride = 1; stride <= 5; ++stride) {
        initial_labels(grid, labels, stride);
        ASSERT_EQ(labels.width(), g.w);
        ASSERT_EQ(labels.height(), g.h);
        const SubsetMajorRow layout{g.w, stride};
        for (int y = 0; y < g.h; ++y) {
          for (int x = 0; x < g.w; ++x) {
            ASSERT_EQ(labels(layout.position(x), y),
                      grid.center_index(grid.cell_x(x), grid.cell_y(y)))
                << g.w << "x" << g.h << " K=" << g.k << " stride=" << stride
                << " threads=" << threads << " at (" << x << ", " << y
                << ")";
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- SubsetSchedule

TEST(SubsetSchedule, RatioOneIsAlwaysActive) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(1.0);
  EXPECT_EQ(schedule.count(), 1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(schedule.active(3, 4, i));
}

TEST(SubsetSchedule, HalfIsCheckerboard) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(0.5);
  EXPECT_EQ(schedule.count(), 2);
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(1, 0));
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(0, 1));
  EXPECT_EQ(schedule.subset_of(0, 0), schedule.subset_of(1, 1));
}

TEST(SubsetSchedule, QuarterIsBayer2x2) {
  const SubsetSchedule schedule = SubsetSchedule::from_ratio(0.25);
  EXPECT_EQ(schedule.count(), 4);
  std::set<int> block;
  block.insert(schedule.subset_of(0, 0));
  block.insert(schedule.subset_of(1, 0));
  block.insert(schedule.subset_of(0, 1));
  block.insert(schedule.subset_of(1, 1));
  EXPECT_EQ(block.size(), 4u);  // every 2x2 block holds all four subsets
}

TEST(SubsetSchedule, NonReciprocalRatioThrows) {
  EXPECT_THROW(SubsetSchedule::from_ratio(0.3), ContractViolation);
  EXPECT_THROW(SubsetSchedule::from_ratio(0.0), ContractViolation);
  EXPECT_THROW(SubsetSchedule::from_ratio(1.5), ContractViolation);
}

// The round-robin coverage property the paper's convergence argument needs:
// every pixel is visited exactly once per `count` consecutive iterations,
// and subsets are equal-sized to within a pixel row.
class SubsetCoverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(SubsetCoverageSweep, EveryPixelVisitedOncePerRound) {
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  const int w = 37, h = 23;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int visits = 0;
      for (int iter = 0; iter < count; ++iter)
        visits += schedule.active(x, y, iter);
      EXPECT_EQ(visits, 1) << "pixel " << x << ',' << y;
    }
  }
}

TEST_P(SubsetCoverageSweep, SubsetsBalanced) {
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  const int w = 64, h = 64;
  std::vector<int> size(static_cast<std::size_t>(count), 0);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      size[static_cast<std::size_t>(schedule.subset_of(x, y))] += 1;
  const int expected = w * h / count;
  for (const int s : size) EXPECT_NEAR(s, expected, expected / 10.0);
}

TEST_P(SubsetCoverageSweep, SubsetsSpatiallyUniform) {
  // Each subset must appear in every 8x8 neighbourhood — the unbiased-
  // center-estimate precondition.
  const int count = GetParam();
  const SubsetSchedule schedule{count};
  for (int by = 0; by < 32; by += 8) {
    for (int bx = 0; bx < 32; bx += 8) {
      std::set<int> present;
      for (int y = by; y < by + 8; ++y)
        for (int x = bx; x < bx + 8; ++x) present.insert(schedule.subset_of(x, y));
      EXPECT_EQ(static_cast<int>(present.size()), count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, SubsetCoverageSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

// ------------------------------------------------- row-interleaved pattern

TEST(SubsetScheduleRows, WholeRowsShareSubset) {
  const SubsetSchedule schedule(4, SubsetPattern::kRowInterleaved);
  for (int y = 0; y < 16; ++y) {
    const int expected = schedule.subset_of(0, y);
    for (int x = 1; x < 24; ++x) EXPECT_EQ(schedule.subset_of(x, y), expected);
    EXPECT_EQ(expected, y % 4);
  }
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kRowInterleaved);
}

TEST(SubsetScheduleRows, CoverageOncePerRound) {
  const SubsetSchedule schedule(3, SubsetPattern::kRowInterleaved);
  for (int y = 0; y < 9; ++y) {
    int visits = 0;
    for (int iter = 0; iter < 3; ++iter) visits += schedule.active(5, y, iter);
    EXPECT_EQ(visits, 1);
  }
}

TEST(SubsetScheduleRows, CountOneIgnoresPattern) {
  const SubsetSchedule schedule(1, SubsetPattern::kRowInterleaved);
  EXPECT_TRUE(schedule.active(3, 7, 0));
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kDithered);  // kAll
}

TEST(SubsetScheduleRows, DitheredDefaultUnchanged) {
  const SubsetSchedule schedule(2);
  EXPECT_EQ(schedule.pattern_kind(), SubsetPattern::kDithered);
  EXPECT_NE(schedule.subset_of(0, 0), schedule.subset_of(1, 0));
}

TEST(SubsetSchedule, RowPhaseAndStrideEnumerateActiveSet) {
  // For every pattern, the active pixels of each row are exactly the
  // arithmetic progression row_phase + k * stride — the property the
  // subset-major PPA layout depends on. Exhaustive over counts, both
  // pattern requests, a full round of iterations and then some, and a
  // lattice several strides wide.
  std::vector<int> counts{1, 2, 3, 4, 5, 6, 7, 8, 64};
  for (const int count : counts) {
    for (const SubsetPattern pattern :
         {SubsetPattern::kDithered, SubsetPattern::kRowInterleaved}) {
      const SubsetSchedule schedule(count, pattern);
      const int stride = schedule.stride();
      ASSERT_GE(stride, 1);
      ASSERT_LE(stride, count);
      const int width = 3 * stride + 5;
      for (int iter = 0; iter <= 2 * count; ++iter) {
        for (int y = 0; y < 2 * count + 3; ++y) {
          const int phase = schedule.row_phase(y, iter);
          ASSERT_GE(phase, -1);
          ASSERT_LT(phase, stride);
          for (int x = 0; x < width; ++x) {
            const bool in_progression =
                phase >= 0 && x >= phase && (x - phase) % stride == 0;
            ASSERT_EQ(schedule.active(x, y, iter), in_progression)
                << "count=" << count << " rows="
                << (pattern == SubsetPattern::kRowInterleaved) << " iter="
                << iter << " x=" << x << " y=" << y;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ connectivity

TEST(Connectivity, AlreadyConnectedIsRelabelledOnly) {
  LabelImage labels(8, 8, 0);
  for (int y = 4; y < 8; ++y)
    for (int x = 0; x < 8; ++x) labels(x, y) = 5;
  const ConnectivityResult result = enforce_connectivity(labels, 2);
  EXPECT_EQ(result.final_label_count, 2);
  EXPECT_EQ(result.components_merged, 0);
  EXPECT_TRUE(is_fully_connected(labels));
}

TEST(Connectivity, StrayFragmentAbsorbed) {
  LabelImage labels(16, 16, 0);
  labels(10, 10) = 7;  // single stray pixel of another label
  const ConnectivityResult result = enforce_connectivity(labels, 4);
  EXPECT_EQ(result.final_label_count, 1);
  EXPECT_EQ(result.components_merged, 1);
  EXPECT_EQ(result.pixels_moved, 1u);
  EXPECT_EQ(labels(10, 10), labels(0, 0));
}

TEST(Connectivity, LargeComponentsKept) {
  LabelImage labels(16, 16, 0);
  for (int y = 0; y < 16; ++y)
    for (int x = 8; x < 16; ++x) labels(x, y) = 1;
  const ConnectivityResult result = enforce_connectivity(labels, 2);
  EXPECT_EQ(result.final_label_count, 2);
  EXPECT_EQ(result.components_merged, 0);
}

TEST(Connectivity, DisconnectedSameLabelSplitOrMerged) {
  // Two blobs share label 0 but are disconnected; afterwards labels are
  // 4-connected components.
  LabelImage labels(20, 8, 1);
  for (int y = 0; y < 8; ++y) {
    labels(0, y) = 0;
    labels(19, y) = 0;
  }
  enforce_connectivity(labels, 60);  // tiny min size: keep everything
  EXPECT_TRUE(is_fully_connected(labels));
  EXPECT_NE(labels(0, 0), labels(19, 0));
}

TEST(Connectivity, OutputLabelsCompact) {
  LabelImage labels(24, 24);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 24; ++x) labels(x, y) = (x / 6) * 10 + (y / 6) * 100;
  const ConnectivityResult result = enforce_connectivity(labels, 16);
  std::set<std::int32_t> seen(labels.pixels().begin(), labels.pixels().end());
  EXPECT_EQ(static_cast<int>(seen.size()), result.final_label_count);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), result.final_label_count - 1);
}

/// The per-pixel depth-first relabelling the scanline fill replaced, kept
/// verbatim as the oracle: scan-order components, adjacent_label from the
/// seed's 4-neighbours (left, right, up, down; last labelled wins), members
/// recorded up to min_size, fragments below min_size absorbed.
ConnectivityResult pixel_dfs_connectivity(const std::vector<std::int32_t>& labels,
                                          std::vector<std::int32_t>& out, int w,
                                          int h, int expected_superpixels) {
  constexpr int kDx[4] = {-1, 1, 0, 0};
  constexpr int kDy[4] = {0, 0, -1, 1};
  const std::size_t n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t min_size = std::max<std::size_t>(
      1, n / static_cast<std::size_t>(expected_superpixels) / 4);
  out.assign(n, -1);
  std::vector<std::int64_t> stack;
  std::vector<std::int64_t> member_indices;
  ConnectivityResult result;
  std::int32_t next_label = 0;
  const auto stride = static_cast<std::int64_t>(w);
  const auto at = [&](int x, int y) -> std::size_t {
    return static_cast<std::size_t>(static_cast<std::int64_t>(y) * stride + x);
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (out[at(x, y)] >= 0) continue;
      std::int32_t adjacent_label = next_label > 0 ? 0 : -1;
      for (int d = 0; d < 4; ++d) {
        const int nx2 = x + kDx[d];
        const int ny2 = y + kDy[d];
        if (nx2 >= 0 && nx2 < w && ny2 >= 0 && ny2 < h && out[at(nx2, ny2)] >= 0)
          adjacent_label = out[at(nx2, ny2)];
      }
      const std::int32_t original = labels[at(x, y)];
      out[at(x, y)] = next_label;
      stack.clear();
      stack.push_back(static_cast<std::int64_t>(at(x, y)));
      member_indices.clear();
      member_indices.push_back(stack.back());
      std::size_t member_count = 1;
      while (!stack.empty()) {
        const std::int64_t flat = stack.back();
        stack.pop_back();
        const int cx = static_cast<int>(flat % stride);
        const int cy = static_cast<int>(flat / stride);
        for (int d = 0; d < 4; ++d) {
          const int nx2 = cx + kDx[d];
          const int ny2 = cy + kDy[d];
          if (nx2 < 0 || nx2 >= w || ny2 < 0 || ny2 >= h) continue;
          const std::size_t nf = at(nx2, ny2);
          if (out[nf] >= 0 || labels[nf] != original) continue;
          out[nf] = next_label;
          stack.push_back(static_cast<std::int64_t>(nf));
          if (member_count < min_size)
            member_indices.push_back(static_cast<std::int64_t>(nf));
          ++member_count;
        }
      }
      if (member_count < min_size && adjacent_label >= 0) {
        for (const std::int64_t flat : member_indices)
          out[static_cast<std::size_t>(flat)] = adjacent_label;
        result.components_merged += 1;
        result.pixels_moved += member_count;
      } else {
        ++next_label;
      }
    }
  }
  result.final_label_count = next_label;
  return result;
}

TEST(Connectivity, ScanlineFillMatchesPixelDfsOracle) {
  // Speckled block labellings (block superpixels, random speckle of
  // foreign labels, and snaking same-label strokes whose runs wrap above
  // their seed row) on awkward shapes, including 1xN, Nx1, K = 1 and K
  // near the pixel count, through both entry points: the output planes
  // and every ConnectivityResult field must equal the pixel DFS.
  struct Shape {
    int w;
    int h;
  };
  const Shape shapes[] = {{1, 1},  {1, 37},  {53, 1},  {2, 2},   {7, 5},
                          {16, 16}, {31, 17}, {64, 48}, {97, 61}, {160, 9}};
  Rng rng(0xc077ec7);
  ConnectivitySpanScratch span_scratch;
  ConnectivityScratch scratch;
  for (const Shape& shape : shapes) {
    const int n = shape.w * shape.h;
    for (const int k : {1, 3, 16, std::max(1, n / 3), n}) {
      for (int trial = 0; trial < 4; ++trial) {
        const int block = rng.next_int(1, 9);
        const double speckle = trial == 0 ? 0.0 : rng.next_double(0.0, 0.4);
        const int palette = rng.next_int(1, 5);
        std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
        for (int y = 0; y < shape.h; ++y) {
          for (int x = 0; x < shape.w; ++x) {
            std::int32_t label = (x / block) + 7 * (y / block);
            if (rng.next_bool(speckle)) label = 1000 + rng.next_int(0, palette);
            // A serpentine stroke of one label: U-shapes that reach back
            // above the row where the scan first meets them.
            if (trial == 3 && (x % 4 == 1 || (y % 6 == 0 && x % 8 < 4)))
              label = 2000;
            labels[static_cast<std::size_t>(y * shape.w + x)] = label;
          }
        }

        std::vector<std::int32_t> want;
        const ConnectivityResult want_result =
            pixel_dfs_connectivity(labels, want, shape.w, shape.h, k);

        std::vector<std::int32_t> got(static_cast<std::size_t>(n), 123);
        int rows_done = 0;
        const ConnectivityResult got_result = enforce_connectivity_span(
            labels.data(), got.data(), shape.w, shape.h, k, span_scratch,
            [&](int y) { EXPECT_EQ(y, rows_done++); });
        EXPECT_EQ(rows_done, shape.h);
        ASSERT_EQ(got, want) << shape.w << "x" << shape.h << " K=" << k
                             << " trial=" << trial;
        EXPECT_EQ(got_result.final_label_count, want_result.final_label_count);
        EXPECT_EQ(got_result.components_merged, want_result.components_merged);
        EXPECT_EQ(got_result.pixels_moved, want_result.pixels_moved);

        // Prefilled output (the out-of-core driver's contract).
        std::vector<std::int32_t> prefilled(static_cast<std::size_t>(n), -1);
        enforce_connectivity_span(labels.data(), prefilled.data(), shape.w,
                                  shape.h, k, span_scratch, {}, true);
        ASSERT_EQ(prefilled, want);

        // The LabelImage entry point with a reused scratch.
        LabelImage image(shape.w, shape.h);
        std::copy(labels.begin(), labels.end(), image.pixels().begin());
        const ConnectivityResult image_result =
            enforce_connectivity(image, k, &scratch);
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               image.pixels().begin()));
        EXPECT_EQ(image_result.final_label_count,
                  want_result.final_label_count);
        EXPECT_EQ(image_result.components_merged,
                  want_result.components_merged);
        EXPECT_EQ(image_result.pixels_moved, want_result.pixels_moved);
      }
    }
  }
}

TEST(IsFullyConnected, DetectsSplitComponents) {
  LabelImage labels(6, 1, 0);
  labels(2, 0) = 1;  // 0 0 1 0 0 0 -> label 0 split in two
  EXPECT_FALSE(is_fully_connected(labels));
}

TEST(IsFullyConnected, AcceptsSingleLabel) {
  const LabelImage labels(5, 5, 3);
  EXPECT_TRUE(is_fully_connected(labels));
}

}  // namespace
}  // namespace sslic
