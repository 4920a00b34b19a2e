// SIMD row-kernel benchmark: scalar vs every vector backend this binary +
// CPU can run, for the three hot assignment row kernels (CPA running-min,
// PPA 9-candidate argmin, 8-bit datapath 9-candidate argmin) and the
// sRGB->Lab conversion kernel, plus reported rows of the conversion at
// input strides 1 and 2 (the frame path's planar calls), of the PPA kernel
// at the live-1080p geometry (row-wide calls vs per-cell calls), and an
// end-to-end CPA segmentation time per ISA.
//
// Reports ns/pixel and effective GB/s per backend, the speedup of the best
// vector backend over scalar, and — before any timing is trusted — a
// byte-identity cross-check of every backend's output against the scalar
// reference on the same inputs (nonzero exit on mismatch: a fast wrong
// kernel is worthless).
//
// Emits BENCH_simd_kernels.json with the numbers plus machine metadata
// (CPU model, selected ISA), so CI and plotting scripts can consume them.
//
//   simd_kernels [--width=1920] [--rows=256] [--reps=40]
//                [--simd=...]
#include <array>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "color/color_convert.h"
#include "common/rng.h"
#include "common/simd.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/grid.h"
#include "slic/iteration_scratch.h"
#include "slic/slic_baseline.h"

namespace {

using namespace sslic;

/// Backends runnable in this process, scalar first (the baseline).
std::vector<simd::Isa> runnable_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (const simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (kernels::backend_compiled(isa) && simd::cpu_supports(isa))
      isas.push_back(isa);
  }
  return isas;
}

/// Shared random workload: `rows` independent row segments of `width`
/// pixels, with float and u8 channel planes, interleaved sRGB input,
/// running-min state, and 9 candidate operands per row block.
struct Workload {
  int width = 0;
  int rows = 0;
  std::vector<float> L, a, b;
  std::vector<std::uint8_t> L8, a8, b8;
  std::vector<Rgb8> rgb;
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  std::vector<kernels::CenterOperand> centers;        // one per row
  std::array<kernels::CenterOperand, 9> cands{};
  std::array<kernels::HwCenterOperand, 9> hw_cands{};
  /// The 9 candidates as one cell's 3-column operand table (column 1 of
  /// every pixel), so assign_candidates_row evaluates all 9 per pixel.
  std::array<kernels::CenterOperand, 9> cell_ops{};
  std::vector<std::int32_t> cell_columns;
  double spatial_weight = 0.25;
  std::int32_t weight_q8 = 64;

  Workload(int width_, int rows_) : width(width_), rows(rows_) {
    const std::size_t n =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(rows);
    L.resize(n);
    a.resize(n);
    b.resize(n);
    L8.resize(n);
    a8.resize(n);
    b8.resize(n);
    rgb.resize(n);
    min_dist.resize(n);
    labels.resize(n);
    Rng rng(20260807);
    for (std::size_t i = 0; i < n; ++i) {
      L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
      a[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
      b[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
      L8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      a8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      b8[i] = static_cast<std::uint8_t>(rng.next_int(0, 255));
      min_dist[i] = rng.next_bool(0.5)
                        ? std::numeric_limits<double>::infinity()
                        : rng.next_double(0.0, 4000.0);
      labels[i] = rng.next_int(0, 2000);
    }
    centers.resize(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      centers[static_cast<std::size_t>(r)] = {
          rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(width)),
          static_cast<double>(r), r};
    }
    for (int k = 0; k < 9; ++k) {
      cands[static_cast<std::size_t>(k)] = {
          rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
          rng.next_double(-90.0, 90.0),
          rng.next_double(0.0, static_cast<double>(width)),
          rng.next_double(0.0, static_cast<double>(rows)), k * 3};
      hw_cands[static_cast<std::size_t>(k)] = {
          rng.next_int(0, 255),       rng.next_int(0, 255),
          rng.next_int(0, 255),       rng.next_int(0, width - 1),
          rng.next_int(0, rows - 1),  k * 3};
    }
    for (std::size_t k = 0; k < 9; ++k)
      cell_ops[3 * (k % 3) + k / 3] = cands[k];
    cell_columns.assign(static_cast<std::size_t>(width), 1);
    // Keep this draw last: the draws above fix the assignment workloads
    // the checked-in baseline was recorded with.
    for (Rgb8& px : rgb) {
      px = {static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255)),
            static_cast<std::uint8_t>(rng.next_int(0, 255))};
    }
  }
};

/// Mutable per-run state (the buffers a kernel writes).
struct RunState {
  std::vector<double> min_dist;
  std::vector<std::int32_t> labels;
  std::vector<float> L, a, b;  ///< srgb_to_lab_row's planes

  explicit RunState(const Workload& wl)
      : min_dist(wl.min_dist),
        labels(wl.labels),
        L(wl.rgb.size()),
        a(wl.rgb.size()),
        b(wl.rgb.size()) {}

  [[nodiscard]] bool same_as(const RunState& o) const {
    const auto same_floats = [](const std::vector<float>& x,
                                const std::vector<float>& y) {
      return std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
    };
    return labels == o.labels &&
           std::memcmp(min_dist.data(), o.min_dist.data(),
                       min_dist.size() * sizeof(double)) == 0 &&
           same_floats(L, o.L) && same_floats(a, o.a) && same_floats(b, o.b);
  }
};

/// One frame-path conversion pass over the workload's rows at input stride
/// `x_step`: one srgb_to_lab_row call per (row, stride phase), writing the
/// subset-major planes (x_step 1 is one call per row).
void convert_pass(const kernels::KernelTable& table, std::int32_t x_step,
                  const Workload& wl, RunState& state) {
  const SubsetMajorRow layout{wl.width, x_step};
  const double* gamma = srgb_gamma_table().data();
  for (int r = 0; r < wl.rows; ++r) {
    const std::size_t row =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(wl.width);
    for (int p = 0; p < x_step && p < wl.width; ++p) {
      const std::size_t out = row + static_cast<std::size_t>(layout.offset(p));
      table.srgb_to_lab_row(wl.rgb.data() + row + static_cast<std::size_t>(p),
                            x_step, layout.columns(p), gamma,
                            state.L.data() + out, state.a.data() + out,
                            state.b.data() + out);
    }
  }
}

enum class Kernel {
  kCenterRow,
  kCandidatesRow,
  kCandidatesRowU8,
  kSrgbToLabRow
};

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kCenterRow:
      return "assign_center_row";
    case Kernel::kCandidatesRow:
      return "assign_candidates_row";
    case Kernel::kCandidatesRowU8:
      return "assign_candidates_row_u8";
    case Kernel::kSrgbToLabRow:
      return "srgb_to_lab_row";
  }
  return "?";
}

/// Bytes streamed per pixel (reads + writes, nominal): used for the GB/s
/// column so backends are comparable; absolute bandwidth is approximate.
double bytes_per_pixel(Kernel k) {
  switch (k) {
    case Kernel::kCenterRow:
      return 3 * 4 + 8 + 4 + 8 + 4;  // 3 floats + min r/w + label r/w
    case Kernel::kCandidatesRow:
      return 3 * 4 + 8 + 4;  // 3 floats in, min + label out
    case Kernel::kCandidatesRowU8:
      return 3 * 1 + 4;  // 3 channel bytes in, label out
    case Kernel::kSrgbToLabRow:
      return 3 * 1 + 3 * 4;  // 3 channel bytes in, 3 floats out
  }
  return 1.0;
}

/// Runs one full pass of `kernel` under `table` over the workload,
/// mutating `state`. One pass = every row once.
void run_pass(const kernels::KernelTable& table, Kernel kernel,
              const Workload& wl, RunState& state) {
  const std::int32_t width = wl.width;
  for (int r = 0; r < wl.rows; ++r) {
    const std::size_t off =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(width);
    switch (kernel) {
      case Kernel::kCenterRow:
        table.assign_center_row(
            wl.L.data() + off, wl.a.data() + off, wl.b.data() + off, 0, width,
            static_cast<double>(r), wl.centers[static_cast<std::size_t>(r)],
            wl.spatial_weight, state.min_dist.data() + off,
            state.labels.data() + off);
        break;
      case Kernel::kCandidatesRow:
        table.assign_candidates_row(
            wl.L.data() + off, wl.a.data() + off, wl.b.data() + off,
            wl.cell_columns.data(), 0, 1, width, static_cast<double>(r),
            wl.cell_ops.data(), 3, wl.spatial_weight, nullptr,
            state.labels.data() + off);
        break;
      case Kernel::kCandidatesRowU8:
        table.assign_candidates_row_u8(
            wl.L8.data() + off, wl.a8.data() + off, wl.b8.data() + off, 0,
            width, r, wl.hw_cands.data(), 9, wl.weight_q8, 8, 6, nullptr,
            state.labels.data() + off);
        break;
      case Kernel::kSrgbToLabRow:
        table.srgb_to_lab_row(wl.rgb.data() + off, 1, width,
                              srgb_gamma_table().data(), state.L.data() + off,
                              state.a.data() + off, state.b.data() + off);
        break;
    }
  }
}

/// Row-wide PPA assignment at the live-1080p geometry: 1920-px rows of the
/// K=5000 grid (94 cells of about 20 px) at the checkerboard stride 2, so
/// each row's active phase is one 960-px subset-major run. Holds kRows
/// rows of planes, the column map and each band's operand table.
struct LiveRows {
  static constexpr int kWidth = 1920;
  static constexpr int kHeight = 1080;
  static constexpr int kSuperpixels = 5000;
  static constexpr int kStride = 2;
  static constexpr int kRows = 64;
  CenterGrid grid{kWidth, kHeight, kSuperpixels};
  SubsetMajorRow layout{kWidth, kStride};
  std::vector<float> L, a, b;
  std::vector<std::int32_t> cols;
  std::vector<std::vector<kernels::CenterOperand>> band_ops;  // by gy
  double spatial_weight = 0.0;

  LiveRows() {
    const std::size_t n =
        static_cast<std::size_t>(kWidth) * static_cast<std::size_t>(kRows);
    L.resize(n);
    a.resize(n);
    b.resize(n);
    Rng rng(20261017);
    for (std::size_t i = 0; i < n; ++i) {
      L[i] = static_cast<float>(rng.next_double(0.0, 100.0));
      a[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
      b[i] = static_cast<float>(rng.next_double(-90.0, 90.0));
    }
    std::vector<ClusterCenter> centers(
        static_cast<std::size_t>(grid.num_centers()));
    for (int gy = 0; gy < grid.ny(); ++gy) {
      for (int gx = 0; gx < grid.nx(); ++gx) {
        centers[static_cast<std::size_t>(grid.center_index(gx, gy))] = {
            rng.next_double(0.0, 100.0), rng.next_double(-90.0, 90.0),
            rng.next_double(-90.0, 90.0),
            grid.center_pos_x(gx) + rng.next_double(-3.0, 3.0),
            grid.center_pos_y(gy) + rng.next_double(-3.0, 3.0)};
      }
    }
    build_column_map(grid, kStride, cols);
    band_ops.resize(static_cast<std::size_t>(grid.ny()));
    for (int gy = 0; gy < grid.ny(); ++gy) {
      auto& ops = band_ops[static_cast<std::size_t>(gy)];
      ops.resize(3 * static_cast<std::size_t>(grid.nx()));
      fill_column_operands(grid, centers, gy, ops.data());
    }
    spatial_weight = 100.0 / (grid.spacing() * grid.spacing());  // m = 10
  }

  /// Active pixels of one pass (every row's phase run once).
  [[nodiscard]] double active_pixels() const {
    double total = 0.0;
    for (int y = 0; y < kRows; ++y) total += layout.columns(y % kStride);
    return total;
  }

  /// One pass over the rows: one kernel call per row, or (per_cell) one
  /// call per grid cell's run of the row — the call pattern the row-wide
  /// kernel replaced. Both produce the same labels.
  void run(const kernels::KernelTable& kt, bool per_cell,
           std::vector<std::int32_t>& labels) const {
    for (int y = 0; y < kRows; ++y) {
      const int phase = y % kStride;
      // The band whose [gy*h/ny, (gy+1)*h/ny) rows hold y.
      const auto& ops = band_ops[static_cast<std::size_t>(
          ((y + 1) * grid.ny() - 1) / kHeight)];
      const std::size_t row =
          static_cast<std::size_t>(y) * static_cast<std::size_t>(kWidth);
      const auto call = [&](int x, std::int32_t count) {
        const int pos = layout.position(x);
        const std::size_t off = row + static_cast<std::size_t>(pos);
        kt.assign_candidates_row(L.data() + off, a.data() + off,
                                 b.data() + off, cols.data() + pos, x, kStride,
                                 count, static_cast<double>(y), ops.data(),
                                 grid.nx(), spatial_weight, nullptr,
                                 labels.data() + off);
      };
      if (!per_cell) {
        call(phase, layout.columns(phase));
        continue;
      }
      for (int gx = 0; gx < grid.nx(); ++gx) {
        const int x0 = gx * kWidth / grid.nx();
        const int x1 = (gx + 1) * kWidth / grid.nx();
        const int x = x0 + ((phase - x0) % kStride + kStride) % kStride;
        if (x < x1) call(x, (x1 - 1 - x) / kStride + 1);
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int width = args.get_int("width", 1920);
  const int rows = args.get_int("rows", 256);
  const int reps = args.get_int("reps", 40);
  const std::string simd_request = args.get_string("simd", "");
  if (!simd_request.empty() && !simd::set_preferred_isa(simd_request)) {
    std::cerr << "unknown --simd value '" << simd_request << "'\n";
    return 2;
  }

  const std::vector<simd::Isa> isas = runnable_isas();
  const Workload wl(width, rows);
  const double total_pixels = static_cast<double>(width) *
                              static_cast<double>(rows) *
                              static_cast<double>(reps);

  std::cout << "==================================================================\n"
            << "SIMD row kernels — scalar vs vector backends\n"
            << "workload: " << rows << " rows x " << width << " px, " << reps
            << " passes per kernel\n"
            << "cpu: " << bench::cpu_model_name() << '\n'
            << "selected isa (dispatch default): "
            << simd::isa_name(kernels::active_isa()) << '\n'
            << "==================================================================\n";

  bool all_identical = true;
  bench::GateMetrics gate;
  bench::Json kernels_json = bench::Json::array();
  Table table("ns/pixel by backend (speedup vs scalar)");
  {
    std::vector<std::string> header = {"kernel"};
    for (const simd::Isa isa : isas) header.emplace_back(simd::isa_name(isa));
    header.emplace_back("best speedup");
    table.set_header(header);
  }

  for (const Kernel kernel :
       {Kernel::kCenterRow, Kernel::kCandidatesRow, Kernel::kCandidatesRowU8,
        Kernel::kSrgbToLabRow}) {
    // Identity cross-check first: every backend, same inputs, one pass.
    RunState ref(wl);
    run_pass(kernels::scalar_table(), kernel, wl, ref);
    for (const simd::Isa isa : isas) {
      RunState got(wl);
      run_pass(kernels::table_for(isa), kernel, wl, got);
      if (!got.same_as(ref)) {
        std::cerr << "MISMATCH: " << kernel_name(kernel) << " on "
                  << simd::isa_name(isa) << " diverges from scalar\n";
        all_identical = false;
      }
    }

    // Timing: median-of-3 of `reps` passes per backend.
    double scalar_ns = 0.0;
    double best_vector_ns = std::numeric_limits<double>::infinity();
    std::string best_vector = "none";
    std::vector<std::string> row = {kernel_name(kernel)};
    bench::Json backends_json = bench::Json::array();
    for (const simd::Isa isa : isas) {
      const kernels::KernelTable& kt = kernels::table_for(isa);
      RunState state(wl);
      run_pass(kt, kernel, wl, state);  // warm-up
      std::array<double, 3> samples{};
      for (double& sample : samples) {
        Stopwatch watch;
        for (int rep = 0; rep < reps; ++rep) run_pass(kt, kernel, wl, state);
        sample = watch.elapsed_ms();
      }
      std::sort(samples.begin(), samples.end());
      const double ns_per_pixel = samples[1] * 1e6 / total_pixels;
      const double gbps =
          bytes_per_pixel(kernel) / ns_per_pixel;  // B/ns == GB/s
      if (isa == simd::Isa::kScalar) {
        scalar_ns = ns_per_pixel;
      } else if (ns_per_pixel < best_vector_ns) {
        best_vector_ns = ns_per_pixel;
        best_vector = simd::isa_name(isa);
      }
      row.push_back(Table::num(ns_per_pixel, 3));
      backends_json.push(bench::Json::object()
                             .set("isa", simd::isa_name(isa))
                             .set("ns_per_pixel", ns_per_pixel)
                             .set("gb_per_s", gbps)
                             .set("speedup_vs_scalar",
                                  isa == simd::Isa::kScalar
                                      ? 1.0
                                      : scalar_ns / ns_per_pixel));
    }
    const double best_speedup =
        best_vector_ns < std::numeric_limits<double>::infinity()
            ? scalar_ns / best_vector_ns
            : 1.0;
    row.push_back(Table::num(best_speedup, 2) + "x (" + best_vector + ")");
    table.add_row(row);
    gate.lower_is_better(std::string(kernel_name(kernel)) + "_scalar_ns_per_pixel",
                         scalar_ns, "ns", 0.35)
        .higher_is_better(std::string(kernel_name(kernel)) + "_best_speedup",
                          best_speedup, "x", 0.35);
    kernels_json.push(bench::Json::object()
                          .set("kernel", kernel_name(kernel))
                          .set("bytes_per_pixel", bytes_per_pixel(kernel))
                          .set("backends", std::move(backends_json))
                          .set("best_vector_isa", best_vector)
                          .set("best_speedup_vs_scalar", best_speedup)
                          .set("outputs_identical", all_identical));
  }
  std::cout << table;
  std::cout << "identity cross-check: "
            << (all_identical ? "all backends byte-identical to scalar"
                              : "MISMATCH (see above)")
            << '\n';

  // --- Frame-path conversion by input stride, per ISA ---
  // Reported, not gated (the gated srgb_to_lab_row row above is x_step 1):
  // the conversion as the frame path runs it, one call per (row, stride
  // phase) into subset-major planes, at x_step 1 (CPA, full PPA) and 2
  // (the checkerboard/Bayer S-SLIC layouts). Every backend must match the
  // scalar planes at both strides.
  bench::Json convert_json = bench::Json::array();
  Table convert_table("srgb_to_lab_row by x_step (frame-path calls): ns/px");
  convert_table.set_header({"isa", "x_step 1", "x_step 2", "2 / 1"});
  std::array<RunState, 2> convert_ref{RunState(wl), RunState(wl)};
  for (std::int32_t x_step = 1; x_step <= 2; ++x_step)
    convert_pass(kernels::scalar_table(), x_step, wl,
                 convert_ref[static_cast<std::size_t>(x_step - 1)]);
  for (const simd::Isa isa : isas) {
    const kernels::KernelTable& kt = kernels::table_for(isa);
    std::array<double, 2> ns{};
    for (std::int32_t x_step = 1; x_step <= 2; ++x_step) {
      const auto k = static_cast<std::size_t>(x_step - 1);
      RunState state(wl);
      convert_pass(kt, x_step, wl, state);  // warm-up + identity check
      if (!state.same_as(convert_ref[k])) {
        std::cerr << "MISMATCH: srgb_to_lab_row x_step " << x_step << " on "
                  << simd::isa_name(isa) << " diverges from scalar\n";
        all_identical = false;
      }
      std::array<double, 3> samples{};
      for (double& sample : samples) {
        Stopwatch watch;
        for (int rep = 0; rep < reps; ++rep) convert_pass(kt, x_step, wl, state);
        sample = watch.elapsed_ms();
      }
      std::sort(samples.begin(), samples.end());
      ns[k] = samples[1] * 1e6 / total_pixels;
    }
    convert_table.add_row({simd::isa_name(isa), Table::num(ns[0], 3),
                           Table::num(ns[1], 3), Table::num(ns[1] / ns[0], 2)});
    convert_json.push(bench::Json::object()
                          .set("isa", simd::isa_name(isa))
                          .set("x_step_1_ns_per_pixel", ns[0])
                          .set("x_step_2_ns_per_pixel", ns[1]));
  }
  std::cout << convert_table;

  // --- Row-wide PPA assignment at the live geometry, per ISA ---
  // Reported, not gated: one row-wide call per row against one call per
  // cell run of the same kernel (about 10 px at stride 2, i.e. about one
  // 8-lane block plus a tail), ns per active pixel. Labels must match
  // across call patterns and against the scalar backend.
  const LiveRows live;
  const double live_pixels = live.active_pixels() * static_cast<double>(reps);
  bench::Json live_json = bench::Json::array();
  Table live_table("PPA assignment, 1920 px rows, stride 2, " +
                   std::to_string(live.grid.nx()) +
                   " cells: ns/active px");
  live_table.set_header({"isa", "row-wide", "per-cell", "per-cell/row-wide"});
  std::vector<std::int32_t> live_ref(live.L.size(), -1);
  live.run(kernels::scalar_table(), false, live_ref);
  for (const simd::Isa isa : isas) {
    const kernels::KernelTable& kt = kernels::table_for(isa);
    std::array<double, 2> ns{};
    for (const bool per_cell : {false, true}) {
      std::vector<std::int32_t> labels(live.L.size(), -1);
      live.run(kt, per_cell, labels);  // warm-up + identity check
      if (labels != live_ref) {
        std::cerr << "MISMATCH: live-geometry assign_candidates_row on "
                  << simd::isa_name(isa) << (per_cell ? " per cell" : "")
                  << " diverges from scalar row-wide\n";
        all_identical = false;
      }
      std::array<double, 3> samples{};
      for (double& sample : samples) {
        Stopwatch watch;
        for (int rep = 0; rep < reps; ++rep) live.run(kt, per_cell, labels);
        sample = watch.elapsed_ms();
      }
      std::sort(samples.begin(), samples.end());
      ns[per_cell ? 1 : 0] = samples[1] * 1e6 / live_pixels;
    }
    live_table.add_row({simd::isa_name(isa), Table::num(ns[0], 3),
                        Table::num(ns[1], 3), Table::num(ns[1] / ns[0], 2)});
    live_json.push(bench::Json::object()
                       .set("isa", simd::isa_name(isa))
                       .set("row_wide_ns_per_active_px", ns[0])
                       .set("per_cell_ns_per_active_px", ns[1]));
  }
  std::cout << live_table;

  // --- End-to-end CPA segmentation per ISA ---
  // One full segmentation per sample under every runnable ISA; labels and
  // centers must match the scalar run byte for byte before any timing is
  // trusted. Reported only, not gated: full segmentations on shared
  // runners swing harder than the pinned row-kernel loops above.
  const int e2e_width = width;
  const int e2e_height = std::max(64, width * 2 / 3);
  const int e2e_k = args.get_int("superpixels", 400);
  const int e2e_iters = args.get_int("iterations", 5);
  SyntheticParams synth;
  synth.width = e2e_width;
  synth.height = e2e_height;
  const GroundTruthImage sample = generate_synthetic(synth, 20260810);
  const LabImage lab = srgb_to_lab(sample.image);
  SlicParams slic_params;
  slic_params.num_superpixels = e2e_k;
  slic_params.max_iterations = e2e_iters;
  const CpaSlic cpa(slic_params);

  bench::Json row_isas_json = bench::Json::array();
  Table e2e_table("CPA full segmentation, ms/frame");
  e2e_table.set_header({"isa", "ms/frame"});
  const simd::Isa restore_isa = simd::preferred_isa();
  Segmentation scalar_result;
  for (const simd::Isa isa : isas) {
    simd::set_preferred_isa(isa);
    Segmentation result;
    IterationScratch scratch;
    cpa.segment_lab_into(lab, result, scratch);  // warm-up (+ result)
    std::array<double, 3> samples{};
    for (double& s : samples) {
      Stopwatch watch;
      cpa.segment_lab_into(lab, result, scratch);
      s = watch.elapsed_ms();
    }
    std::sort(samples.begin(), samples.end());
    const double ms_row = samples[1];
    if (isa == simd::Isa::kScalar) scalar_result = result;
    const bool same =
        std::memcmp(result.labels.data(), scalar_result.labels.data(),
                    static_cast<std::size_t>(e2e_width) *
                        static_cast<std::size_t>(e2e_height) *
                        sizeof(std::int32_t)) == 0 &&
        result.centers.size() == scalar_result.centers.size() &&
        std::memcmp(result.centers.data(), scalar_result.centers.data(),
                    result.centers.size() * sizeof(ClusterCenter)) == 0;
    if (!same) {
      std::cerr << "MISMATCH: CPA segmentation on " << simd::isa_name(isa)
                << " diverges from scalar\n";
      all_identical = false;
    }
    e2e_table.add_row({simd::isa_name(isa), Table::num(ms_row, 2)});
    row_isas_json.push(bench::Json::object()
                           .set("isa", simd::isa_name(isa))
                           .set("row_ms_per_frame", ms_row)
                           .set("outputs_identical", same));
  }
  simd::set_preferred_isa(restore_isa);
  std::cout << e2e_table;

  bench::Json::object()
      .set("bench", "simd_kernels")
      .set("workload", bench::Json::object()
                           .set("width", width)
                           .set("rows", rows)
                           .set("reps", reps)
                           .set("candidates", 9))
      .set("machine", bench::machine_json())
      .set("kernels", std::move(kernels_json))
      .set("srgb_to_lab_row_by_x_step",
           bench::Json::object()
               .set("width", width)
               .set("rows", rows)
               .set("isas", std::move(convert_json)))
      .set("ppa_live_row",
           bench::Json::object()
               .set("width", LiveRows::kWidth)
               .set("stride", LiveRows::kStride)
               .set("cells", live.grid.nx())
               .set("rows", LiveRows::kRows)
               .set("isas", std::move(live_json)))
      .set("cpa_strategies",
           bench::Json::object()
               .set("width", e2e_width)
               .set("height", e2e_height)
               .set("superpixels", e2e_k)
               .set("iterations", e2e_iters)
               .set("isas", std::move(row_isas_json)))
      .set("all_outputs_identical", all_identical)
      .set("gate", gate.json())
      .write_file("BENCH_simd_kernels.json");
  return all_identical ? 0 : 1;
}
