#include "slic/subsampled.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/perf_counters.h"
#include "common/trace.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/center_update.h"
#include "slic/connectivity.h"
#include "slic/fusion.h"
#include "slic/grid.h"
#include "slic/slic_baseline.h"
#include "slic/subset_schedule.h"

namespace sslic {

PpaSlic::PpaSlic(SlicParams params, DataWidth data_width)
    : params_(params),
      data_width_(data_width),
      stride_(SubsetSchedule::from_ratio(params_.subsample_ratio,
                                         params_.subset_pattern)
                  .stride()) {
  SSLIC_CHECK(params_.num_superpixels >= 1);
  SSLIC_CHECK(params_.compactness > 0.0);
  SSLIC_CHECK(params_.max_iterations >= 1);
}

Segmentation PpaSlic::segment(const RgbImage& image,
                              const IterationCallback& callback,
                              Instrumentation* instrumentation,
                              PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  {
    Stopwatch watch;
    srgb_to_lab(image, scratch.planes, stride_);
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseColorConversion, watch.elapsed_ms());
  }
  segment_planes_into(scratch.planes, nullptr, result, scratch, callback,
                      instrumentation, phases);
  return result;
}

Segmentation PpaSlic::segment_lab(const LabImage& lab,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation,
                                  PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  segment_lab_into(lab, result, scratch, callback, instrumentation, phases);
  return result;
}

Segmentation PpaSlic::segment_lab_warm(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    const IterationCallback& callback, Instrumentation* instrumentation,
    PhaseTimer* phases) const {
  Segmentation result;
  IterationScratch scratch;
  segment_lab_warm_into(lab, initial_centers, result, scratch, callback,
                        instrumentation, phases);
  return result;
}

void PpaSlic::segment_lab_into(const LabImage& lab, Segmentation& result,
                               IterationScratch& scratch,
                               const IterationCallback& callback,
                               Instrumentation* instrumentation,
                               PhaseTimer* phases) const {
  SSLIC_CHECK(!lab.empty());
  split_lab_planes(lab, scratch.planes, stride_);
  segment_planes_into(scratch.planes, nullptr, result, scratch, callback,
                      instrumentation, phases);
}

void PpaSlic::segment_lab_warm_into(
    const LabImage& lab, const std::vector<ClusterCenter>& initial_centers,
    Segmentation& result, IterationScratch& scratch,
    const IterationCallback& callback, Instrumentation* instrumentation,
    PhaseTimer* phases) const {
  SSLIC_CHECK(!lab.empty());
  split_lab_planes(lab, scratch.planes, stride_);
  segment_planes_into(scratch.planes, &initial_centers, result, scratch,
                      callback, instrumentation, phases);
}

void PpaSlic::segment_planes_into(const LabPlanes& lab_planes,
                                  const std::vector<ClusterCenter>* warm_centers,
                                  Segmentation& result,
                                  IterationScratch& scratch,
                                  const IterationCallback& callback,
                                  Instrumentation* instrumentation,
                                  PhaseTimer* phases) const {
  SSLIC_CHECK(!lab_planes.empty());
  SSLIC_CHECK_MSG(lab_planes.stride == stride_,
                  "planes stored at stride " << lab_planes.stride
                                             << ", PpaSlic reads stride "
                                             << stride_);
  SSLIC_TRACE_SCOPE("ppa.segment");
  SSLIC_PERF_SCOPE("ppa.segment");
  const int w = lab_planes.width();
  const int h = lab_planes.height();

  Instrumentation local_instr;
  Instrumentation& instr = instrumentation != nullptr ? *instrumentation : local_instr;
  instr = Instrumentation{};
  const bool fused = fusion_enabled();
  instr.fused = fused;

  Stopwatch init_watch;
  const CenterGrid grid(w, h, params_.num_superpixels);
  const DistanceCalculator dist(params_.compactness, grid.spacing(), data_width_);
  const SubsetSchedule schedule =
      SubsetSchedule::from_ratio(params_.subsample_ratio, params_.subset_pattern);
  const int num_centers = grid.num_centers();
  const auto num_centers_z = static_cast<std::size_t>(num_centers);

  // Model n-bit storage: the image (and, after every update, the centers)
  // are held at the configured data width. At full float width the input
  // planes are already in stored form — no copy needed. Quantization is
  // per channel, so the copy keeps the planes' layout.
  const LabPlanes* stored_ptr = &lab_planes;
  if (data_width_.color_bits != 0) {
    LabPlanes& q = scratch.stored;
    if (q.width() != w || q.height() != h) q = LabPlanes(w, h);
    q.stride = lab_planes.stride;
    const std::size_t n = lab_planes.L.size();
    for (std::size_t i = 0; i < n; ++i) {
      const LabF px = dist.quantize(
          {lab_planes.L.data()[i], lab_planes.a.data()[i],
           lab_planes.b.data()[i]});
      q.L.data()[i] = px.L;
      q.a.data()[i] = px.a;
      q.b.data()[i] = px.b;
    }
    stored_ptr = &q;
  }
  const LabPlanes& planes = *stored_ptr;

  if (warm_centers != nullptr) {
    SSLIC_CHECK_MSG(static_cast<int>(warm_centers->size()) == num_centers,
                    "warm start has " << warm_centers->size()
                                      << " centers, grid needs " << num_centers);
    result.centers.assign(warm_centers->begin(), warm_centers->end());
    for (auto& c : result.centers) {
      c.x = std::clamp(c.x, 0.0, static_cast<double>(w - 1));
      c.y = std::clamp(c.y, 0.0, static_cast<double>(h - 1));
    }
  } else {
    seed_centers(grid, planes, params_.perturb_centers, result.centers);
  }
  for (auto& c : result.centers) dist.quantize_center(c);
  result.iterations_run = 0;
  result.trace.clear();
  result.trace.reserve(static_cast<std::size_t>(params_.max_iterations));

  // Subset-major working state (DESIGN.md "Subset-major PPA iterations"):
  // the planes and the labels store each row's stride phases one after
  // another, so the active pixels of any row segment are one contiguous
  // run and the loop below touches nothing else. The initial labels are
  // written in that order directly; result.labels gets the natural order
  // back after the iterations. Kernel dispatch is resolved once, outside
  // the row loops.
  const int stride = stride_;
  const SubsetMajorRow layout{w, stride};
  initial_labels(grid, scratch.subset_labels, stride);
  if (result.labels.width() != w || result.labels.height() != h)
    result.labels = LabelImage(w, h);
  std::int32_t* const labels_sm = scratch.subset_labels.data();
  const kernels::KernelTable& kt = kernels::active();
  const double spatial_weight = dist.spatial_weight();
  // Row-wide assignment inputs (DESIGN.md "Row-wide PPA assignment").
  build_column_map(grid, stride, scratch.column_map);
  const std::int32_t* const column_map = scratch.column_map.data();
  std::vector<kernels::CenterOperand>& column_ops = scratch.column_ops;
  column_ops.resize(3 * static_cast<std::size_t>(grid.nx()));
  std::vector<ColumnRange>& cell_runs = scratch.cell_runs;
  cell_runs.reserve(static_cast<std::size_t>(grid.nx()));

  std::vector<Sigma>& sigmas = scratch.sigmas;
  sigmas.assign(num_centers_z, Sigma{});
  // Preemptive extension state.
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  frozen.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& calm_streak = scratch.calm_streak;
  calm_streak.assign(num_centers_z, 0);
  std::vector<std::uint8_t>& tile_skipped = scratch.tile_skipped;
  tile_skipped.assign(num_centers_z, 0);
  if (phases != nullptr) phases->add(CpaSlic::kPhaseOther, init_watch.elapsed_ms());

  // Preemptive skip test: every one of cell (gx, gy)'s 9 candidates — the
  // clamped 3x3 neighbourhood of grid cells — is frozen.
  const auto candidates_frozen = [&](int gx, int gy) {
    for (int cy = std::max(gy - 1, 0); cy <= std::min(gy + 1, grid.ny() - 1);
         ++cy) {
      for (int cx = std::max(gx - 1, 0);
           cx <= std::min(gx + 1, grid.nx() - 1); ++cx) {
        if (frozen[static_cast<std::size_t>(grid.center_index(cx, cy))] == 0)
          return false;
      }
    }
    return true;
  };

  // The active pixels of row y within columns [x0, x1) at one iteration:
  // first column, length, position within the subset-major row, and
  // offset within the planes.
  struct ActiveRun {
    int x = 0;
    std::int32_t count = 0;
    int position = 0;
    std::size_t offset = 0;
  };
  const auto active_run = [&](int y, int phase, int x0, int x1) {
    ActiveRun run;
    run.x = x0 + ((phase - x0) % stride + stride) % stride;
    if (run.x >= x1) return run;
    run.count = (x1 - 1 - run.x) / stride + 1;
    run.position = layout.position(run.x);
    run.offset = static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                 static_cast<std::size_t>(run.position);
    return run;
  };
  // Adds the active subset's pixels of rows [ya, yb) into the sigmas in
  // row-major order — the order of the per-pixel Sigma::add loop, so sums
  // are bit-equal to it — skipping the grid cells whose tiles the
  // preemptive extension skipped this iteration. Returns the pixel count.
  const auto accumulate_rows = [&](int iter, int ya, int yb) {
    std::uint64_t added = 0;
    const auto add_run = [&](int y, const ActiveRun& run) {
      if (run.count == 0) return;
      kt.accumulate_row(planes.L.data() + run.offset,
                        planes.a.data() + run.offset,
                        planes.b.data() + run.offset, run.x, stride, run.count,
                        y, labels_sm + run.offset, sigmas.data());
      added += static_cast<std::uint64_t>(run.count);
    };
    for (int y = ya; y < yb; ++y) {
      const int phase = schedule.row_phase(y, iter);
      if (phase < 0) continue;
      if (!params_.preemptive) {
        add_run(y, active_run(y, phase, 0, w));
        continue;
      }
      const int cell_gy = grid.cell_y(y);
      for (int gx = 0; gx < grid.nx(); ++gx) {
        if (tile_skipped[static_cast<std::size_t>(
                grid.center_index(gx, cell_gy))] != 0)
          continue;
        add_run(y, active_run(y, phase, grid.cell_x_begin(gx),
                              grid.cell_x_begin(gx + 1)));
      }
    }
    return added;
  };

  for (int iter = 0; iter < params_.max_iterations; ++iter) {
    SSLIC_TRACE_SCOPE("ppa.iter", iter);
    Stopwatch iter_watch;
    IterationStats stats;
    stats.iteration = iter;

    // --- Per-pixel assignment over the active subset, band by band. ---
    // Each active row of a band is one kernel call (one per maximal run of
    // non-skipped cells under the preemptive extension); its vector blocks
    // cross grid cells. Fused mode accumulates each band's sigma
    // contributions right after the band's rows finish (the labels of those
    // rows are final for this iteration); bands are ascending contiguous
    // row ranges, so the accumulation order is exactly the global row-major
    // order of the two-pass update loop and sigmas match it bit for bit.
    Stopwatch assign_watch;
    trace::Interval assign_span;
    perf::IntervalSample iter_perf;
    std::fill(tile_skipped.begin(), tile_skipped.end(), std::uint8_t{0});
    if (fused) {
      for (auto& s : sigmas) s.clear();
    }
    std::uint64_t accumulated = 0;
    for (int gy = 0; gy < grid.ny(); ++gy) {
      const int y0 = gy * h / grid.ny();
      const int y1 = (gy + 1) * h / grid.ny();
      // Preemptive skips and the per-cell candidate-fetch charge, then the
      // band's non-skipped cells merged into maximal column ranges of the
      // tile partition x in [gx*w/nx, (gx+1)*w/nx).
      cell_runs.clear();
      for (int gx = 0; gx < grid.nx(); ++gx) {
        const auto cell = static_cast<std::size_t>(grid.center_index(gx, gy));
        if (params_.preemptive && candidates_frozen(gx, gy)) {
          instr.tiles_skipped += 1;
          tile_skipped[cell] = 1;
          continue;
        }
        instr.traffic.center_read += 9 * MemTraffic::kCenterBytes;
        const int x0 = gx * w / grid.nx();
        const int x1 = (gx + 1) * w / grid.nx();
        if (!cell_runs.empty() && cell_runs.back().x1 == x0) {
          cell_runs.back().x1 = x1;
        } else {
          cell_runs.push_back({x0, x1});
        }
      }
      fill_column_operands(grid, result.centers, gy, column_ops.data());
      for (int y = y0; y < y1; ++y) {
        const int phase = schedule.row_phase(y, iter);
        if (phase < 0) continue;
        for (const ColumnRange& cells : cell_runs) {
          const ActiveRun run = active_run(y, phase, cells.x0, cells.x1);
          if (run.count == 0) continue;
          kt.assign_candidates_row(
              planes.L.data() + run.offset, planes.a.data() + run.offset,
              planes.b.data() + run.offset, column_map + run.position, run.x,
              stride, run.count, static_cast<double>(y), column_ops.data(),
              grid.nx(), spatial_weight, nullptr, labels_sm + run.offset);
          stats.pixels_visited += static_cast<std::uint64_t>(run.count);
        }
      }

      // --- Fused band accumulation over rows [y0, y1). ---
      if (fused) {
        SSLIC_TRACE_SCOPE_AT(1, "ppa.fused_accumulate", gy);
        accumulated += accumulate_rows(iter, y0, y1);
      }
    }
    // Model counts, hoisted out of the row loop: every visited pixel scans
    // its 9-candidate list (9 distance evals, 8 running-min compares), and
    // the software-prototype DRAM convention (see instrumentation.h)
    // charges Lab(12)+candidates(18)+label r/w(8)+min-dist r/w(8) per
    // visited pixel, whatever the row kernel evaluates internally.
    instr.ops.distance_evals += stats.pixels_visited * 9;
    instr.ops.compare_ops += stats.pixels_visited * 8;
    instr.traffic.image_read += stats.pixels_visited * MemTraffic::kLabBytes;
    instr.traffic.candidate_read +=
        stats.pixels_visited * MemTraffic::kCandidateBytes;
    instr.traffic.label_read += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr.traffic.label_write += stats.pixels_visited * MemTraffic::kLabelBytes;
    instr.traffic.distance_read +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    instr.traffic.distance_write +=
        stats.pixels_visited * MemTraffic::kDistanceBytes;
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseDistanceMin, assign_watch.elapsed_ms());
    assign_span.complete("ppa.assign", iter);
    iter_perf.complete("ppa.assign");

    // --- Center update from the subset's accumulations (OS-EM style). ---
    // In two-pass mode the sigma accumulation runs as its own pass (the
    // hardware's cluster update unit accumulates from tile-resident data,
    // so this adds no DRAM traffic) and is charged to the center-update
    // phase, matching the paper's Table-1 accounting. In fused mode it
    // already happened stripe by stripe above; only the division remains.
    Stopwatch update_watch;
    trace::Interval update_span;
    if (!fused) {
      for (auto& s : sigmas) s.clear();
      accumulated += accumulate_rows(iter, 0, h);
    }
    instr.ops.accumulate_ops += 6 * accumulated;
    double movement_sum = 0.0;
    std::size_t updated = 0;
    for (std::size_t ci = 0; ci < result.centers.size(); ++ci) {
      const Sigma& s = sigmas[ci];
      if (s.count == 0) continue;
      const double inv = 1.0 / static_cast<double>(s.count);
      ClusterCenter next{s.L * inv, s.a * inv, s.b * inv, s.x * inv, s.y * inv};
      dist.quantize_center(next);
      const double moved =
          std::abs(next.x - result.centers[ci].x) +
          std::abs(next.y - result.centers[ci].y);
      movement_sum += moved;
      ++updated;
      result.centers[ci] = next;
      instr.ops.divide_ops += 5;

      if (params_.preemptive) {
        if (moved < params_.freeze_threshold) {
          if (calm_streak[ci] < 255) calm_streak[ci] += 1;
          if (calm_streak[ci] >= 2) frozen[ci] = 1;
        } else {
          calm_streak[ci] = 0;
          frozen[ci] = 0;
        }
      }
    }
    stats.center_movement =
        updated == 0 ? 0.0 : movement_sum / static_cast<double>(updated);
    instr.traffic.center_write +=
        static_cast<std::uint64_t>(num_centers) * MemTraffic::kCenterBytes;
    if (phases != nullptr)
      phases->add(CpaSlic::kPhaseCenterUpdate, update_watch.elapsed_ms());
    update_span.complete("ppa.update", iter);
    iter_perf.complete("ppa.update");

    instr.iterations += 1;
    result.iterations_run = iter + 1;
    stats.elapsed_ms = iter_watch.elapsed_ms();
    result.trace.push_back(stats);

    if (callback) {
      from_subset_major(scratch.subset_labels, stride, result.labels);
      callback(stats, result.labels, result.centers);
    }

    if (params_.convergence_threshold > 0.0 &&
        stats.center_movement < params_.convergence_threshold &&
        iter + 1 >= schedule.count()) {
      break;
    }
  }

  // A callback run restored the natural order after the last iteration.
  if (!callback) from_subset_major(scratch.subset_labels, stride, result.labels);

  if (params_.enforce_connectivity) {
    Stopwatch conn_watch;
    SSLIC_TRACE_SCOPE("ppa.connectivity");
    SSLIC_PERF_SCOPE("ppa.connectivity");
    enforce_connectivity(result.labels, params_.num_superpixels,
                         &scratch.connectivity);
    if (phases != nullptr) phases->add(CpaSlic::kPhaseOther, conn_watch.elapsed_ms());
  }
}

}  // namespace sslic
