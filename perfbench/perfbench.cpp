// Frame-in -> labels-out benchmark program.
//
// Runs one named workload through the public entry points (StreamEngine for
// the two video workloads, BatchSegmenter for the still-photo workload),
// checks every output, and writes the raw measurements as one JSON document
// (--out). run.py turns that document into the named metrics; this program
// does no statistics beyond recording samples.
//
// Phases of one run, in order:
//   1. fingerprint + fixed-work calibration (noise reference);
//   2. input generation from --seed (timed, reported apart from set-up);
//   3. serial references on a 1-thread pool (outside every timed window);
//   4. set-up, repeated (pool, engine or segmenter, streams, cold + first
//      warm frame); the last repetition's objects serve the window;
//   5. the measured window (untraced); with --trace 1 the window is split
//      into an untraced part, a traced part (spans around the engine /
//      batch calls) and a per-layer replay of the same inputs through each
//      layer's public functions.
//
//   perfbench --workload=live-1080p|streams-360p|photos-bsds --seed=N
//             --seconds=S --trace=0|1 --out=FILE
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "color/color_convert.h"
#include "common/cli.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "engine/engine.h"
#include "image/planar.h"
#include "slic/assign_kernels.h"
#include "slic/batch.h"
#include "slic/connectivity.h"
#include "slic/grid.h"
#include "slic/slic_baseline.h"
#include "slic/subsampled.h"
#include "slic/temporal.h"

namespace {

using namespace sslic;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  int width = 0;
  int height = 0;
  int superpixels = 0;
  int streams = 1;            ///< video streams, or images per batch
  double fps = 0.0;           ///< offered rate per stream; 0 = closed loop
  double latency_limit_ms = 0.0;  ///< 0 = no limit (closed loop)
  bool video = true;
  int cut_interval = 0;       ///< frames between scene cuts
  int pan_dx = 0;             ///< pan speed, pixels per frame
  int pan_dy = 0;
  int scenes = 0;             ///< generated scenes per stream
  int corpus = 0;             ///< still images, reused in cycles
  engine::AdmissionPolicy policy = engine::AdmissionPolicy::kBlock;
  std::size_t queue_limit = 4;
};

// An untraced window also runs until it holds this many frames, so the p90
// latency has ten samples beyond it.
constexpr int kMinFrames = 100;

// Set-up is repeated at least kSetupMinReps times and until kSetupMinSeconds
// have been spent in it (a short set-up is noisy on a shared host, so it
// gets more repetitions), at most kSetupMaxReps times; setup_s is the median.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 2.5;

bool make_workload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "live-1080p") {
    w->width = 1920; w->height = 1080; w->superpixels = 5000;
    w->cut_interval = 30; w->pan_dx = 4; w->pan_dy = 2; w->scenes = 2;
    return true;
  }
  if (name == "streams-360p") {
    w->width = 640; w->height = 360; w->superpixels = 400; w->streams = 4;
    w->fps = 30.0; w->latency_limit_ms = 200.0;
    w->cut_interval = 60; w->pan_dx = 2; w->pan_dy = 1; w->scenes = 2;
    w->policy = engine::AdmissionPolicy::kDropOldest; w->queue_limit = 2;
    return true;
  }
  if (name == "photos-bsds") {
    w->width = 481; w->height = 321; w->superpixels = 900; w->streams = 4;
    w->video = false; w->corpus = 12;
    return true;
  }
  return false;
}

/// Video: S-SLIC PPA(0.5). Photos: baseline SLIC (CPA, ratio 1).
SlicParams slic_params(const Workload& w) {
  SlicParams p;
  p.num_superpixels = w.superpixels;
  p.subsample_ratio = w.video ? 0.5 : 1.0;
  p.max_iterations = 10;
  return p;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL ^ (a + 0x632BE59BD9B4E019ULL) ^
                    (b * 0xD1B54A32D192ED03ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

// ------------------------------------------------------------------- inputs

/// One video stream: a few large generated scenes; frame f is a width x
/// height window of scene (f / cut) % scenes, panning diagonally from the
/// scene's corner, so frames inside a cut interval are coherent and frame
/// f = k * cut starts a new scene (the stream is reset there).
class PanningClip {
 public:
  PanningClip(const Workload& w, std::uint64_t seed, int stream) : w_(w) {
    SyntheticParams scene;
    scene.width = w.width + w.cut_interval * w.pan_dx;
    scene.height = w.height + w.cut_interval * w.pan_dy;
    for (int s = 0; s < w.scenes; ++s) {
      scenes_.push_back(generate_synthetic(
          scene, mix_seed(seed, static_cast<std::uint64_t>(stream) + 1,
                          static_cast<std::uint64_t>(s))).image);
    }
  }

  [[nodiscard]] bool is_cut(std::int64_t f) const {
    return f % w_.cut_interval == 0;
  }

  void frame(std::int64_t f, RgbImage& out) const {
    const RgbImage& scene =
        scenes_[static_cast<std::size_t>((f / w_.cut_interval) %
                                         static_cast<std::int64_t>(scenes_.size()))];
    const int local = static_cast<int>(f % w_.cut_interval);
    const int ox = local * w_.pan_dx;
    const int oy = local * w_.pan_dy;
    if (out.width() != w_.width || out.height() != w_.height)
      out = RgbImage(w_.width, w_.height);
    for (int y = 0; y < w_.height; ++y) {
      std::memcpy(&out(0, y), &scene(ox, oy + y),
                  static_cast<std::size_t>(w_.width) * sizeof(Rgb8));
    }
  }

 private:
  Workload w_;
  std::vector<RgbImage> scenes_;
};

std::vector<RgbImage> make_corpus(const Workload& w, std::uint64_t seed) {
  SyntheticParams params;
  params.width = w.width;
  params.height = w.height;
  std::vector<RgbImage> corpus;
  for (int i = 0; i < w.corpus; ++i) {
    corpus.push_back(
        generate_synthetic(params, mix_seed(seed, 100, static_cast<std::uint64_t>(i)))
            .image);
  }
  return corpus;
}

// ------------------------------------------------------------- output check

/// Label range, full cover and K' bounds: every label lies in [0, K'), every
/// id in [0, K') owns at least one pixel, and K' is within [K/4, 4K]. The K'
/// bound only catches a collapsed or exploded segmentation; how far K'
/// drifts from K is reported, not gated (the warm start loses superpixels
/// while the camera pans). Stores K' in *kprime.
bool check_labels(const LabelImage& labels, int width, int height, int k,
                  int* kprime_out, std::string* why) {
  *kprime_out = 0;
  if (labels.width() != width || labels.height() != height) {
    *why = "label map has the wrong size";
    return false;
  }
  thread_local std::vector<std::uint32_t> hist;
  hist.assign(static_cast<std::size_t>(4 * k) + 1, 0);
  for (const std::int32_t l : labels.pixels()) {
    if (l < 0 || l > 4 * k) {
      *why = "label " + std::to_string(l) + " out of range";
      return false;
    }
    ++hist[static_cast<std::size_t>(l)];
  }
  std::size_t kprime = 0;
  while (kprime < hist.size() && hist[kprime] > 0) ++kprime;
  for (std::size_t i = kprime; i < hist.size(); ++i) {
    if (hist[i] > 0) {
      *why = "label ids are not contiguous (id " + std::to_string(kprime) +
             " unused, id " + std::to_string(i) + " used)";
      return false;
    }
  }
  *kprime_out = static_cast<int>(kprime);
  if (4 * kprime < static_cast<std::size_t>(k) ||
      kprime > 4 * static_cast<std::size_t>(k)) {
    *why = "K' = " + std::to_string(kprime) + " outside [K/4, 4K] for K = " +
           std::to_string(k);
    return false;
  }
  return true;
}

struct Failures {
  std::mutex mu;
  std::vector<std::string> messages;
  std::size_t count = 0;

  void add(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu);
    ++count;
    if (messages.size() < 20) messages.push_back(what);
  }
};

// ------------------------------------------------------------------ records

enum Status { kOk = 0, kShed = 1, kDropped = 2, kCheckFailed = 3 };

/// One offered frame (image, for the photo workload); the completion
/// callback fills the same record for the frame it completes.
struct FrameRecord {
  int stream = 0;
  std::uint64_t sequence = 0;  ///< engine sequence (0 when shed)
  double due_ms = 0.0;         ///< open loop: schedule; closed loop: submit entry
  double submit_ms = 0.0;      ///< submit / segment_batch entry
  double submit_us = 0.0;      ///< duration of the submit call
  double prev_done_ms = -1.0;  ///< closed loop: completion of the previous frame
  double done_ms = -1.0;       ///< labels out (-1: never completed)
  double queue_ms = 0.0;       ///< FrameResult::queue_ms
  double latency_ms = 0.0;     ///< FrameResult::latency_ms
  int status = kOk;
  int kprime = 0;              ///< superpixels in the output (0: none)
};

/// Host CPU ticks from /proc/stat: the share stolen by the hypervisor while
/// a window runs is how a noisy-neighbour run is recognised.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal; the guest fields that
  // follow are already counted in user and nice.
  HostTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    if (field == 7) t.steal = v;
    t.total += v;
  }
  return t;
}

struct PoolSnapshot {
  std::uint64_t jobs = 0;
  std::uint64_t busy_ns = 0;
};

PoolSnapshot pool_snapshot() {
  PoolSnapshot s;
  ThreadPool& pool = ThreadPool::global();
  s.jobs = pool.jobs_run();
  for (const auto& w : pool.stats()) s.busy_ns += w.busy_ns;
  return s;
}

struct Phase {
  std::string name;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::vector<FrameRecord> frames;
  std::vector<double> batch_call_ms;
  engine::EngineStats engine_before;
  engine::EngineStats engine_after;
  PoolSnapshot pool_before;
  PoolSnapshot pool_after;
  HostTicks host_before;
  HostTicks host_after;
};

// ------------------------------------------------------------------- spans

/// In-memory span of the per-layer replay. Parent is an index into the
/// same lane's vector (-1: root); children lie inside their parent's
/// interval except the seed span, which is attributed to the segment call
/// that performs the same seeding internally.
struct Span {
  int parent = -1;
  const char* name = "";
  double start_ms = 0.0;
  double dur_ms = 0.0;
  std::int64_t frame = 0;
};

struct Lane {
  std::vector<Span> spans;

  int open(const char* name, int parent, std::int64_t frame) {
    spans.push_back({parent, name, now_ms(), 0.0, frame});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int id) { spans[static_cast<std::size_t>(id)].dur_ms =
                           now_ms() - spans[static_cast<std::size_t>(id)].start_ms; }
  void add(const char* name, int parent, std::int64_t frame, double start,
           double dur) {
    spans.push_back({parent, name, start, dur, frame});
  }
};

struct ReplayCounts {
  std::uint64_t frames = 0;
  std::uint64_t iterations = 0;
  std::uint64_t distance_evals = 0;
  std::uint64_t traffic_bytes = 0;
};

// ------------------------------------------------------------ the benchmark

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

long read_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::stol(line.substr(n + 1));
  }
  return -1;
}

std::string read_first_line(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(prefix);
  while (std::getline(in, line)) {
    if (line.compare(0, n, prefix) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "absent";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// cgroup v2 cpu.max, or the v1 quota and period in the same "quota period"
/// form ("max" / "-1" mean no limit).
std::string cgroup_cpu_max() {
  std::string v2 = read_first_line("/sys/fs/cgroup/cpu.max", "");
  if (v2 != "absent") return v2;
  const std::string quota = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "");
  const std::string period = read_first_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "");
  if (quota == "absent") return "absent";
  return quota + " " + period + " (v1)";
}

volatile std::uint64_t g_calibration_sink = 0;  // keeps the work observable

/// Fixed integer work, repeated: its spread is the host's noise floor.
std::vector<double> calibrate() {
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const double t0 = now_ms();
    std::uint64_t x = 88172645463325252ULL + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink += x & 0xFF;
    }
    samples.push_back(now_ms() - t0);
  }
  g_calibration_sink = sink;
  return samples;
}

class Bench {
 public:
  Bench(Options opts, Workload w) : opts_(std::move(opts)), w_(std::move(w)) {}

  int run();

 private:
  // Video workloads.
  void make_video_inputs();
  void video_references();
  std::unique_ptr<engine::StreamEngine> video_setup();
  void video_window(engine::StreamEngine& eng, Phase& phase, double seconds,
                    int min_frames, bool traced);
  void video_replay(double seconds);
  engine::CompletionFn completion_fn(int stream);

  // Photo workload.
  void photo_references();
  std::unique_ptr<BatchSegmenter> photo_setup();
  void photo_window(BatchSegmenter& seg, Phase& phase, double seconds,
                    int min_frames);
  void photo_replay(double seconds);
  bool check_photo_batch(const BatchSegmenter& seg, std::size_t first,
                         int* kprime);

  void replay_frame(Lane& lane, std::int64_t f, const RgbImage& rgb,
                    bool cold, int slot);
  [[nodiscard]] bool more_setup() const;
  void sum_replay_counts();
  void write(std::ostream& out) const;

  Options opts_;
  Workload w_;
  int threads_ = 1;
  Failures failures_;

  // Inputs.
  std::vector<PanningClip> clips_;
  std::vector<RgbImage> corpus_;
  double input_gen_s_ = 0.0;
  double reference_s_ = 0.0;
  std::vector<double> calibration_ms_;

  // Serial references: video, frames 0 and 1 of every stream; photos,
  // every corpus image.
  std::vector<std::vector<LabelImage>> reference_;

  // Set-up.
  std::vector<double> setup_s_;
  long rss_base_kb_ = 0;
  long rss_peak_kb_ = 0;

  // Engine completion plumbing.
  std::mutex done_mu_;
  std::vector<FrameRecord> done_;
  bool capture_prefix_ = false;
  std::vector<std::vector<LabelImage>> prefix_;  ///< per stream, seq 1..2
  std::vector<engine::StreamId> ids_;
  /// Next clip frame per stream; set-up used frames 0 and 1, and the traced
  /// window continues where the untraced one stopped.
  std::vector<std::int64_t> next_frame_;
  // Traced window: spans at the engine boundary (generator side, and the
  // completion callbacks on the scheduler thread, under done_mu_).
  std::atomic<bool> traced_{false};
  Lane trace_lane_;
  Lane callback_lane_;

  std::vector<Phase> phases_;

  // Replay.
  std::vector<Lane> lanes_;
  ReplayCounts counts_;
  double replay_s_ = 0.0;
  struct ReplayState {
    LabImage lab;
    LabPlanes planes;
    std::optional<CenterGrid> grid;
    std::vector<ClusterCenter> seeded;
    Image<float> gradient;
    std::vector<ClusterCenter> previous;
    Segmentation result;
    IterationScratch scratch;
    ConnectivityScratch connectivity;
    Instrumentation instr;
    std::vector<double> cb_ms;
    std::vector<double> cb_elapsed;
    ReplayCounts counts;
  };
  std::vector<ReplayState> replay_state_;
};

void Bench::make_video_inputs() {
  for (int s = 0; s < w_.streams; ++s) clips_.emplace_back(w_, opts_.seed, s);
}

void Bench::video_references() {
  reference_.assign(static_cast<std::size_t>(w_.streams), {});
  RgbImage frame;
  for (int s = 0; s < w_.streams; ++s) {
    TemporalSlic ref(slic_params(w_));
    for (std::int64_t f = 0; f < 2; ++f) {
      clips_[static_cast<std::size_t>(s)].frame(f, frame);
      reference_[static_cast<std::size_t>(s)].push_back(ref.next_frame(frame).labels);
    }
  }
}

engine::CompletionFn Bench::completion_fn(int stream) {
  return [this, stream](const engine::FrameResult& r) {
    FrameRecord c;
    c.done_ms = now_ms();
    c.stream = stream;
    c.sequence = r.ticket.sequence;
    c.queue_ms = r.queue_ms;
    c.latency_ms = r.latency_ms;
    if (r.dropped) {
      c.status = kDropped;
    } else {
      std::string why;
      if (!check_labels(r.segmentation->labels, w_.width, w_.height,
                        w_.superpixels, &c.kprime, &why)) {
        c.status = kCheckFailed;
        failures_.add("stream " + std::to_string(stream) + " frame seq " +
                      std::to_string(c.sequence) + ": " + why);
      }
      if (capture_prefix_ && c.sequence <= 2) {
        prefix_[static_cast<std::size_t>(stream)][c.sequence - 1] =
            r.segmentation->labels;
      }
    }
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(c);
    if (traced_) callback_lane_.add("engine.callback", -1,
                                    static_cast<std::int64_t>(c.sequence),
                                    c.done_ms, now_ms() - c.done_ms);
  };
}

std::unique_ptr<engine::StreamEngine> Bench::video_setup() {
  capture_prefix_ = true;
  prefix_.assign(static_cast<std::size_t>(w_.streams),
                 std::vector<LabelImage>(2));
  std::vector<RgbImage> frames(static_cast<std::size_t>(w_.streams));
  for (int s = 0; s < w_.streams; ++s)
    clips_[static_cast<std::size_t>(s)].frame(0, frames[static_cast<std::size_t>(s)]);

  const double t0 = now_ms();
  ThreadPool::set_global_threads(threads_);
  engine::EngineOptions eopts;
  eopts.heartbeat = false;
  auto eng = std::make_unique<engine::StreamEngine>(eopts);
  ids_.clear();
  for (int s = 0; s < w_.streams; ++s) {
    engine::StreamOptions so;
    so.params = slic_params(w_);
    so.algorithm = engine::StreamAlgorithm::kPpa;
    so.temporal_warm = true;
    so.queue_limit = w_.queue_limit;
    so.policy = w_.policy;
    so.on_complete = completion_fn(s);
    ids_.push_back(eng->open_stream(so));
  }
  double setup_ms = now_ms() - t0;
  for (std::int64_t f = 0; f < 2; ++f) {
    if (f == 1) {
      for (int s = 0; s < w_.streams; ++s)
        clips_[static_cast<std::size_t>(s)].frame(1, frames[static_cast<std::size_t>(s)]);
    }
    const double t1 = now_ms();
    for (int s = 0; s < w_.streams; ++s) {
      if (eng->submit(ids_[static_cast<std::size_t>(s)],
                      frames[static_cast<std::size_t>(s)]).status !=
          engine::SubmitStatus::kAdmitted)
        failures_.add("set-up frame was shed");
    }
    // drain(), unlike wait(), returns only after the completion callbacks ran.
    eng->drain();
    setup_ms += now_ms() - t1;
  }
  setup_s_.push_back(setup_ms / 1000.0);
  capture_prefix_ = false;
  next_frame_.assign(static_cast<std::size_t>(w_.streams), 2);
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_.clear();
  }
  for (int s = 0; s < w_.streams; ++s) {
    for (std::size_t f = 0; f < 2; ++f) {
      if (!(prefix_[static_cast<std::size_t>(s)][f] ==
            reference_[static_cast<std::size_t>(s)][f])) {
        failures_.add("stream " + std::to_string(s) + " frame " +
                      std::to_string(f) +
                      " differs from the serial TemporalSlic reference");
      }
    }
  }
  return eng;
}

void Bench::video_window(engine::StreamEngine& eng, Phase& phase,
                         double seconds, int min_frames, bool traced) {
  const auto streams = static_cast<std::size_t>(w_.streams);
  std::vector<RgbImage> buffers(streams);
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done_.clear();
  }
  phase.frames.reserve(static_cast<std::size_t>(
      seconds * std::max(w_.fps, 30.0) * static_cast<double>(streams)) + 256);
  phase.engine_before = eng.stats();
  phase.pool_before = pool_snapshot();
  phase.host_before = host_ticks();
  traced_ = traced;
  const double cpu0 = cpu_seconds();
  // Open loop: the schedule starts just ahead of now so frame 0 is on time.
  const double t0 = now_ms() + (w_.fps > 0.0 ? 2.0 : 0.0);
  const double end = t0 + seconds * 1000.0;
  // Safety stop so a very slow host still exits inside the run limit.
  const double hard_end = t0 + 150'000.0;

  auto offer = [&](std::size_t s, double due) {
    const std::int64_t f = next_frame_[s]++;
    clips_[s].frame(f, buffers[s]);
    if (clips_[s].is_cut(f)) eng.reset_stream(ids_[s]);
    FrameRecord rec;
    rec.stream = static_cast<int>(s);
    rec.submit_ms = now_ms();
    rec.due_ms = due < 0.0 ? rec.submit_ms : due;
    const int span = traced ? trace_lane_.open("engine.submit", -1, f) : -1;
    const engine::SubmitResult r = eng.submit(ids_[s], buffers[s]);
    rec.submit_us = (now_ms() - rec.submit_ms) * 1000.0;
    if (span >= 0) trace_lane_.close(span);
    if (r.status == engine::SubmitStatus::kAdmitted) {
      rec.sequence = r.ticket.sequence;
    } else {
      rec.status = kShed;
    }
    phase.frames.push_back(rec);
    return r;
  };

  if (w_.fps <= 0.0) {
    // Closed loop: one caller, the next frame goes in when the last is out.
    double prev_done = -1.0;
    while (true) {
      const double t = now_ms();
      if (t >= hard_end) break;
      if (t >= end && static_cast<int>(phase.frames.size()) >= min_frames) break;
      const engine::SubmitResult r = offer(0, -1.0);
      phase.frames.back().prev_done_ms = prev_done;
      if (r.status == engine::SubmitStatus::kAdmitted) {
        const int span = traced ? trace_lane_.open("engine.drain", -1, 0) : -1;
        eng.drain();
        if (span >= 0) trace_lane_.close(span);
      }
      {
        const std::lock_guard<std::mutex> lock(done_mu_);
        if (!done_.empty()) prev_done = done_.back().done_ms;
      }
    }
  } else {
    // Open loop: stream s frame n is due at t0 + (n + s / streams) / fps,
    // whether or not the engine has caught up.
    const double period = 1000.0 / w_.fps;
    for (std::int64_t k = 0;; ++k) {
      const auto s = static_cast<std::size_t>(k % static_cast<std::int64_t>(streams));
      const auto n = static_cast<double>(k / static_cast<std::int64_t>(streams));
      const double due =
          t0 + (n + static_cast<double>(s) / static_cast<double>(streams)) * period;
      if (due >= end) break;
      const double wait_ms = due - now_ms();
      if (wait_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait_ms));
      }
      offer(s, due);
    }
    eng.drain();
  }
  const double t_end = now_ms();
  phase.cpu_s = cpu_seconds() - cpu0;
  phase.window_s = (w_.fps <= 0.0 ? t_end - t0 : end - t0) / 1000.0;
  phase.engine_after = eng.stats();
  phase.pool_after = pool_snapshot();
  phase.host_after = host_ticks();
  traced_ = false;

  // Join completions onto the offered frames by (stream, sequence).
  std::vector<FrameRecord> done;
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  std::vector<std::vector<const FrameRecord*>> by_seq(streams);
  for (const auto& c : done) {
    auto& v = by_seq[static_cast<std::size_t>(c.stream)];
    if (v.size() <= c.sequence) v.resize(c.sequence + 1, nullptr);
    v[c.sequence] = &c;
  }
  for (auto& rec : phase.frames) {
    if (rec.status == kShed) continue;
    const auto& v = by_seq[static_cast<std::size_t>(rec.stream)];
    const FrameRecord* c = rec.sequence < v.size() ? v[rec.sequence] : nullptr;
    if (c == nullptr) {
      failures_.add("frame seq " + std::to_string(rec.sequence) + " of stream " +
                    std::to_string(rec.stream) + " never completed");
      rec.status = kCheckFailed;
      continue;
    }
    rec.status = c->status;
    if (c->status != kDropped) rec.done_ms = c->done_ms;
    rec.queue_ms = c->queue_ms;
    rec.latency_ms = c->latency_ms;
    rec.kprime = c->kprime;
  }
}

// Replays one frame through each layer's public functions with spans:
//   frame
//     color.srgb_to_lab         srgb_to_lab
//     image.split_lab_planes    split_lab_planes
//     slic.seed                 CenterGrid + seed_centers (cold frames; a
//                               replay of the seeding the call does inside)
//     slic.segment              the segmenter call, connectivity off, then
//       slic.iter  (each)       enforce_connectivity on its labels
//       slic.connectivity
// The output equals the engine's / BatchSegmenter's for the same frame.
// `slot` is the stream (video) or the position in the batch (photos); it
// picks the replay state and, for video, the stream's reference.
void Bench::replay_frame(Lane& lane, std::int64_t f, const RgbImage& rgb,
                         bool cold, int slot) {
  ReplayState& st = replay_state_[static_cast<std::size_t>(slot)];
  const int root = lane.open("frame", -1, f);

  int id = lane.open("color.srgb_to_lab", root, f);
  srgb_to_lab(rgb, st.lab);
  lane.close(id);

  id = lane.open("image.split_lab_planes", root, f);
  split_lab_planes(st.lab, st.planes);
  lane.close(id);

  const SlicParams base = slic_params(w_);
  double seed_start = 0.0;
  double seed_ms = 0.0;
  if (cold) {
    seed_start = now_ms();
    st.grid.emplace(rgb.width(), rgb.height(), base.num_superpixels);
    seed_centers(*st.grid, st.lab, base.perturb_centers, st.seeded, st.gradient);
    seed_ms = now_ms() - seed_start;
  }

  st.cb_ms.clear();
  st.cb_elapsed.clear();
  const IterationCallback cb = [&st](const IterationStats& s, const LabelImage&,
                                     const std::vector<ClusterCenter>&) {
    st.cb_ms.push_back(now_ms());
    st.cb_elapsed.push_back(s.elapsed_ms);
  };
  SlicParams params = base;
  params.enforce_connectivity = false;
  const int seg = lane.open("slic.segment", root, f);
  if (cold) lane.add("slic.seed", seg, f, seed_start, seed_ms);
  if (!w_.video) {
    CpaSlic(params).segment_lab_into(st.lab, st.result, st.scratch, cb, &st.instr);
  } else if (cold) {
    PpaSlic(params).segment_lab_into(st.lab, st.result, st.scratch, cb, &st.instr);
  } else {
    params.max_iterations = TemporalSlic::default_warm_iterations(base);
    PpaSlic(params).segment_lab_warm_into(st.lab, st.previous, st.result,
                                          st.scratch, cb, &st.instr);
  }
  for (std::size_t k = 0; k < st.cb_ms.size(); ++k) {
    const double start = k == 0 ? st.cb_ms[0] - st.cb_elapsed[0] : st.cb_ms[k - 1];
    lane.add("slic.iter", seg, f, start, st.cb_ms[k] - start);
  }
  id = lane.open("slic.connectivity", seg, f);
  enforce_connectivity(st.result.labels, base.num_superpixels, &st.connectivity);
  lane.close(id);
  lane.close(seg);
  lane.close(root);

  if (w_.video) st.previous = st.result.centers;
  st.counts.frames += 1;
  st.counts.iterations += st.instr.iterations;
  st.counts.distance_evals += st.instr.ops.distance_evals;
  st.counts.traffic_bytes += st.instr.traffic.total();

  // Faithfulness of the decomposition: the same bytes as the references.
  const LabelImage* ref = nullptr;
  if (!w_.video) {
    ref = &reference_[0][static_cast<std::size_t>(f % w_.corpus)];
  } else if (f < 2) {
    ref = &reference_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(f)];
  }
  if (ref != nullptr && !(st.result.labels == *ref)) {
    failures_.add("replay of frame " + std::to_string(f) + " (slot " +
                  std::to_string(slot) + ") differs from the reference");
  }
  std::string why;
  int kprime = 0;
  if (!check_labels(st.result.labels, w_.width, w_.height, w_.superpixels,
                    &kprime, &why))
    failures_.add("replay frame " + std::to_string(f) + ": " + why);
}

bool Bench::more_setup() const {
  const auto reps = static_cast<int>(setup_s_.size());
  double spent = 0.0;
  for (const double s : setup_s_) spent += s;
  return reps < kSetupMinReps ||
         (reps < kSetupMaxReps && spent < kSetupMinSeconds);
}

void Bench::sum_replay_counts() {
  for (const ReplayState& st : replay_state_) {
    counts_.frames += st.counts.frames;
    counts_.iterations += st.counts.iterations;
    counts_.distance_evals += st.counts.distance_evals;
    counts_.traffic_bytes += st.counts.traffic_bytes;
  }
}

void Bench::video_replay(double seconds) {
  const auto streams = static_cast<std::size_t>(w_.streams);
  lanes_.assign(streams, {});
  replay_state_.assign(streams, {});
  std::vector<RgbImage> frames(streams);
  const double t0 = now_ms();
  std::int64_t f = 0;
  // Same parallel shape as the engine: one stream runs on the calling
  // thread with intra-frame parallelism; several streams run as one pool
  // job, a frame per chunk, each on the serial inner path.
  while (f < 2 || now_ms() - t0 < seconds * 1000.0) {
    for (std::size_t s = 0; s < streams; ++s) clips_[s].frame(f, frames[s]);
    const bool cold = clips_[0].is_cut(f);
    auto one = [&](std::size_t s) {
      replay_frame(lanes_[s], f, frames[s], cold, static_cast<int>(s));
    };
    if (streams == 1) {
      one(0);
    } else {
      ThreadPool::global().run_chunks(streams, one);
    }
    ++f;
  }
  replay_s_ = (now_ms() - t0) / 1000.0;
  sum_replay_counts();
}

void Bench::photo_references() {
  reference_.assign(1, {});
  const CpaSlic ref(slic_params(w_));
  for (const auto& img : corpus_) reference_[0].push_back(ref.segment(img).labels);
}

bool Bench::check_photo_batch(const BatchSegmenter& seg, std::size_t first,
                              int* kprime) {
  bool ok = true;
  for (std::size_t i = 0; i < seg.results().size(); ++i) {
    const std::size_t idx = (first + i) % corpus_.size();
    const LabelImage& labels = seg.results()[i].labels;
    std::string why;
    if (!check_labels(labels, w_.width, w_.height, w_.superpixels, &kprime[i],
                      &why)) {
      ok = false;
      failures_.add("image " + std::to_string(idx) + ": " + why);
    } else if (!(labels == reference_[0][idx])) {
      ok = false;
      failures_.add("image " + std::to_string(idx) +
                    " differs from the serial CpaSlic reference");
    }
  }
  return ok;
}

std::unique_ptr<BatchSegmenter> Bench::photo_setup() {
  const double t0 = now_ms();
  ThreadPool::set_global_threads(threads_);
  auto seg = std::make_unique<BatchSegmenter>(slic_params(w_),
                                              BatchSegmenter::Algorithm::kCpa);
  seg->segment_batch(corpus_.data(), static_cast<std::size_t>(w_.streams));
  setup_s_.push_back((now_ms() - t0) / 1000.0);
  std::vector<int> kprime(static_cast<std::size_t>(w_.streams));
  check_photo_batch(*seg, 0, kprime.data());
  return seg;
}

void Bench::photo_window(BatchSegmenter& seg, Phase& phase, double seconds,
                         int min_frames) {
  const auto batch = static_cast<std::size_t>(w_.streams);
  const std::size_t batches_in_corpus = corpus_.size() / batch;
  phase.pool_before = pool_snapshot();
  phase.host_before = host_ticks();
  const double cpu0 = cpu_seconds();
  const double t0 = now_ms();
  const double end = t0 + seconds * 1000.0;
  double prev_done = -1.0;
  for (std::size_t b = 1;; ++b) {
    const double t = now_ms();
    if (t >= t0 + 150'000.0) break;
    if (t >= end && static_cast<int>(phase.frames.size()) >= min_frames) break;
    const std::size_t first = (b % batches_in_corpus) * batch;
    const double entry = now_ms();
    seg.segment_batch(corpus_.data() + first, batch);
    const double done = now_ms();
    phase.batch_call_ms.push_back(done - entry);
    std::vector<int> kprime(batch);
    const bool ok = check_photo_batch(seg, first, kprime.data());
    for (std::size_t i = 0; i < batch; ++i) {
      FrameRecord rec;
      rec.stream = static_cast<int>(i);
      rec.due_ms = entry;
      rec.submit_ms = entry;
      rec.prev_done_ms = prev_done;
      rec.done_ms = done;
      rec.status = ok ? kOk : kCheckFailed;
      rec.kprime = kprime[i];
      phase.frames.push_back(rec);
    }
    prev_done = done;
  }
  phase.window_s = (now_ms() - t0) / 1000.0;
  phase.cpu_s = cpu_seconds() - cpu0;
  phase.pool_after = pool_snapshot();
  phase.host_after = host_ticks();
}

void Bench::photo_replay(double seconds) {
  const auto batch = static_cast<std::size_t>(w_.streams);
  lanes_.assign(batch, {});
  replay_state_.assign(batch, {});
  const double t0 = now_ms();
  std::int64_t b = 0;
  // Same shape as BatchSegmenter: a batch is one pool job, an image per
  // chunk, each on the serial inner path.
  while (b < 1 || now_ms() - t0 < seconds * 1000.0) {
    const auto first = static_cast<std::int64_t>(batch) * b;
    ThreadPool::global().run_chunks(batch, [&](std::size_t i) {
      const std::int64_t f = first + static_cast<std::int64_t>(i);
      replay_frame(lanes_[i], f,
                   corpus_[static_cast<std::size_t>(f % w_.corpus)], true,
                   static_cast<int>(i));
    });
    ++b;
  }
  replay_s_ = (now_ms() - t0) / 1000.0;
  sum_replay_counts();
}

int Bench::run() {
  // Large blocks always come from (and go back to) mmap, so memory freed by
  // input generation is not silently reused by set-up and the resident-size
  // delta below measures the program's own footprint.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  threads_ = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));

  calibration_ms_ = calibrate();

  ThreadPool::set_global_threads(threads_);
  double t0 = now_ms();
  if (w_.video) {
    make_video_inputs();
  } else {
    corpus_ = make_corpus(w_, opts_.seed);
  }
  input_gen_s_ = (now_ms() - t0) / 1000.0;

  t0 = now_ms();
  ThreadPool::set_global_threads(1);
  if (w_.video) {
    video_references();
  } else {
    photo_references();
  }
  reference_s_ = (now_ms() - t0) / 1000.0;

  malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
  }
  rss_base_kb_ = read_status_kb("VmRSS:");

  // With --trace 1 the window is split: untraced, traced, replay.
  const double share = opts_.trace ? opts_.seconds / 3.0 : opts_.seconds;
  const int min_frames = opts_.trace ? 0 : kMinFrames;
  if (w_.video) {
    std::unique_ptr<engine::StreamEngine> eng;
    while (more_setup()) {
      eng.reset();
      eng = video_setup();
    }
    phases_.emplace_back().name = "e2e";
    video_window(*eng, phases_.back(), share, min_frames, false);
    if (opts_.trace) {
      phases_.emplace_back().name = "traced";
      video_window(*eng, phases_.back(), share, 0, true);
    }
    rss_peak_kb_ = read_status_kb("VmHWM:");
    eng.reset();
    if (opts_.trace) video_replay(share);
  } else {
    std::unique_ptr<BatchSegmenter> seg;
    while (more_setup()) {
      seg.reset();
      seg = photo_setup();
    }
    phases_.emplace_back().name = "e2e";
    photo_window(*seg, phases_.back(), share, min_frames);
    if (opts_.trace) {
      phases_.emplace_back().name = "traced";
      photo_window(*seg, phases_.back(), share, 0);
    }
    rss_peak_kb_ = read_status_kb("VmHWM:");
    seg.reset();
    if (opts_.trace) photo_replay(share);
  }

  std::ofstream out(opts_.out);
  write(out);
  out.close();
  if (!out) {
    std::cerr << "perfbench: cannot write " << opts_.out << "\n";
    return 2;
  }
  return 0;
}

void Bench::write(std::ostream& out) const {
  out.precision(10);
  auto list = [&out](const std::vector<double>& v) {
    out << '[';
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
    out << ']';
  };
  out << "{\"workload\":\"" << w_.name << "\",\"seed\":" << opts_.seed
      << ",\"trace\":" << (opts_.trace ? 1 : 0) << ",\"closed_loop\":"
      << (w_.fps <= 0.0 ? "true" : "false")
      << ",\"latency_limit_ms\":" << w_.latency_limit_ms
      << ",\"min_frames\":" << kMinFrames
      << ",\"pixels_per_frame\":" << w_.width * w_.height
      << ",\"superpixels\":" << w_.superpixels;
  out << ",\"fingerprint\":{\"cpu_model\":\""
      << json_escape(read_first_line("/proc/cpuinfo", "model name"))
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cgroup_cpu_max\":\"" << json_escape(cgroup_cpu_max())
      << "\",\"isa\":\"" << simd::isa_name(kernels::active_isa())
      << "\",\"pool_threads\":" << threads_ << "}";
  out << ",\"calibration_ms\":";
  list(calibration_ms_);
  out << ",\"input_gen_s\":" << input_gen_s_ << ",\"reference_s\":" << reference_s_
      << ",\"setup_s\":";
  list(setup_s_);
  out << ",\"rss_base_kb\":" << rss_base_kb_ << ",\"rss_peak_kb\":" << rss_peak_kb_;
  out << ",\"failures\":" << failures_.count << ",\"failure_messages\":[";
  for (std::size_t i = 0; i < failures_.messages.size(); ++i)
    out << (i ? "," : "") << '"' << json_escape(failures_.messages[i]) << '"';
  out << "],\"phases\":{";
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    const Phase& ph = phases_[p];
    out << (p ? "," : "") << '"' << ph.name << "\":{\"window_s\":" << ph.window_s
        << ",\"cpu_s\":" << ph.cpu_s << ",\"engine\":{\"batches\":"
        << ph.engine_after.batches - ph.engine_before.batches
        << ",\"frames\":" << ph.engine_after.frames - ph.engine_before.frames
        << ",\"shed\":" << ph.engine_after.shed - ph.engine_before.shed
        << ",\"dropped\":" << ph.engine_after.dropped - ph.engine_before.dropped
        << "},\"pool\":{\"jobs\":" << ph.pool_after.jobs - ph.pool_before.jobs
        << ",\"busy_ns\":" << ph.pool_after.busy_ns - ph.pool_before.busy_ns
        << "},\"host_steal_ticks\":" << ph.host_after.steal - ph.host_before.steal
        << ",\"host_total_ticks\":" << ph.host_after.total - ph.host_before.total
        << ",\"batch_call_ms\":";
    list(ph.batch_call_ms);
    // Frame columns: stream, due, submit, submit_us, prev_done, done,
    // queue_ms, latency_ms, status, kprime.
    out << ",\"frames\":[";
    for (std::size_t i = 0; i < ph.frames.size(); ++i) {
      const FrameRecord& r = ph.frames[i];
      out << (i ? "," : "") << '[' << r.stream << ',' << r.due_ms << ','
          << r.submit_ms << ',' << r.submit_us << ',' << r.prev_done_ms << ','
          << r.done_ms << ',' << r.queue_ms << ',' << r.latency_ms << ','
          << r.status << ',' << r.kprime << ']';
    }
    out << "]}";
  }
  out << "}";
  if (opts_.trace) {
    out << ",\"replay\":{\"seconds\":" << replay_s_ << ",\"frames\":" << counts_.frames
        << ",\"iterations\":" << counts_.iterations
        << ",\"distance_evals\":" << counts_.distance_evals
        << ",\"traffic_bytes\":" << counts_.traffic_bytes << ",\"lanes\":[";
    // Span columns: parent, name, start_ms, dur_ms, frame.
    std::vector<const Lane*> lanes;
    for (const Lane& l : lanes_) lanes.push_back(&l);
    lanes.push_back(&trace_lane_);
    lanes.push_back(&callback_lane_);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      out << (l ? "," : "") << '[';
      const auto& spans = lanes[l]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i ? "," : "") << '[' << s.parent << ",\"" << s.name << "\","
            << s.start_ms << ',' << s.dur_ms << ',' << s.frame << ']';
      }
      out << ']';
    }
    out << "]}";
  }
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  Options opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.out = args.get_string("out", "");
  Workload w;
  if (!make_workload(opts.workload, &w) || opts.out.empty() || opts.seconds <= 0.0) {
    std::cerr << "usage: perfbench --workload=live-1080p|streams-360p|photos-bsds"
                 " --seed=N --seconds=S --trace=0|1 --out=FILE\n";
    return 2;
  }
  Bench bench(opts, w);
  return bench.run();
}
