#!/usr/bin/env python3
"""Frame-in -> labels-out benchmark of the S-SLIC library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the repository's
libraries from source) into .bench_build/; later runs rebuild incrementally.

--trace 0 prints the end-to-end metrics: the ones BENCHMARK.json gates,
then goodput, latency percentiles and miss ratio, reported without a bound.
--trace 1 splits the window into an untraced part, a traced part and a
per-layer replay, and prints every per-layer metric. Human-readable lines
(metric, unit, sample count, machine fingerprint, noise calibration) come
first; the last line of standard output is one JSON object holding the
metrics BENCHMARK.json lists. The raw samples, the result with its
fingerprint, and (traced runs) the replay spans as a Chrome trace are written
to .bench_out/. The command exits non-zero when any output check fails.

Workloads (see METRICS.md for the layer -> metric -> workload predictions):
  live-1080p    closed loop, one StreamEngine stream, 1920x1080, K=5000,
                S-SLIC PPA(0.5), warm start, scene cut every 30 frames;
                the window also runs until it holds 100 frames.
  streams-360p  open loop, four 640x360 streams at 30 fps each, K=400,
                drop-oldest admission, queue 2, latency limit 200 ms.
  photos-bsds   closed loop, BatchSegmenter batches of four 481x321 images,
                K=900, baseline SLIC (CPA, ratio 1, 10 iterations).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("live-1080p", "streams-360p", "photos-bsds")
BUILD = Path(".bench_build")
OUT = Path(".bench_out")
RUN_TIMEOUT_S = 175

# The end-to-end metrics BENCHMARK.json gates. The wall-clock figures
# (goodput, latency percentiles, miss ratio) are printed and stored too, but
# on a shared 4-vCPU host their spread over ten runs reached 0.33-0.70 of the
# median when neighbours were busy, beyond any bound BENCHMARK.json may set,
# so they are reported, not gated. CPU time per frame is the steady figure.
GATED = ("cpu_ms_per_frame", "setup_s", "peak_rss_mb")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def end_to_end(raw):
    """The end-to-end metrics of the untraced window: (value, unit, samples)."""
    ph = raw["phases"]["e2e"]
    frames = ph["frames"]
    counts = stats.outcomes(frames, raw["latency_limit_ms"])
    lat = [stats.latency_ms(f) for f in frames if stats.completed(f)]
    setup = raw["setup_s"]
    peak_mb = (raw["rss_peak_kb"] - raw["rss_base_kb"]) / 1024.0
    metrics = {
        "cpu_ms_per_frame": (stats.cpu_ms_per_frame(ph["cpu_s"], counts), "ms",
                             counts["completed"]),
        "setup_s": (stats.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "goodput_fps": (stats.goodput_fps(counts, ph["window_s"]), "1/s",
                        counts["good"]),
        "latency_p50_ms": (stats.median(lat), "ms", len(lat)),
        "latency_p90_ms": (stats.percentile(lat, 90), "ms", len(lat)),
        "miss_ratio": (stats.miss_ratio(counts), "ratio", counts["offered"]),
    }
    return metrics, counts


def per_layer(raw):
    """The per-layer metrics of a traced run: (value, unit, samples)."""
    rep = raw["replay"]
    nframes = rep["frames"]
    durations = defaultdict(list)
    self_ms = defaultdict(float)
    for lane in rep["lanes"]:
        for span, own in zip(lane, stats.self_times(lane)):
            durations[span[1]].append(span[3])
            self_ms[span[1]] += own

    def per_frame(name):
        return sum(durations[name]) / nframes

    iters = durations["slic.iter"]
    if len(iters) != rep["iterations"]:
        raise RuntimeError(f"{len(iters)} iteration spans for "
                           f"{rep['iterations']} counted iterations")
    m = {
        "color.srgb_to_lab.ms": (per_frame("color.srgb_to_lab"), "ms", nframes),
        "color.srgb_to_lab.ns_per_px": (
            per_frame("color.srgb_to_lab") * 1e6 / raw["pixels_per_frame"],
            "ns/px", nframes),
        "image.split_lab_planes.ms": (per_frame("image.split_lab_planes"), "ms",
                                      nframes),
        "slic.seed.ms": (per_frame("slic.seed"), "ms", nframes),
        "slic.iter.ms": (sum(iters) / len(iters), "ms", len(iters)),
        "slic.iter.p50_ms": (stats.median(iters), "ms", len(iters)),
        "slic.iterations": (rep["iterations"] / nframes, "count", nframes),
        "slic.distance_evals": (rep["distance_evals"] / nframes, "count", nframes),
        "slic.bytes_per_iter": (rep["traffic_bytes"] / rep["iterations"], "B",
                                rep["iterations"]),
        "slic.connectivity.ms": (per_frame("slic.connectivity"), "ms", nframes),
        "slic.segment.ms": (per_frame("slic.segment"), "ms", nframes),
        "slic.segment.self_ms": (self_ms["slic.segment"] / nframes, "ms", nframes),
    }

    video = raw["workload"] != "photos-bsds"
    ph = raw["phases"]["traced"]
    frames = ph["frames"]
    counts = stats.outcomes(frames, raw["latency_limit_ms"])
    done = [f for f in frames if stats.completed(f)]
    eng = ph["engine"]
    offered = counts["offered"]
    threads = raw["fingerprint"]["pool_threads"]
    lag = stats.generator_lag_ms(frames, raw["closed_loop"])
    untraced = stats.goodput_fps(
        stats.outcomes(raw["phases"]["e2e"]["frames"], raw["latency_limit_ms"]),
        raw["phases"]["e2e"]["window_s"])
    traced = stats.goodput_fps(counts, ph["window_s"])
    # Layers a workload does not run report 0 (engine on photos-bsds,
    # BatchSegmenter on the video workloads).
    m.update({
        "engine.submit.us": (
            stats.median([f[stats.SUBMIT_US] for f in frames]) if video else 0.0,
            "us", offered),
        "engine.queue.ms": (
            stats.median([f[stats.QUEUE] for f in done]) if video else 0.0,
            "ms", len(done)),
        "engine.service.ms": (
            stats.median([f[stats.LATENCY] - f[stats.QUEUE] for f in done])
            if video else 0.0, "ms", len(done)),
        "engine.batch_frames": (
            eng["frames"] / eng["batches"] if eng["batches"] else 0.0, "count",
            eng["batches"]),
        "engine.shed": (eng["shed"] / offered, "ratio", offered),
        "engine.dropped": (eng["dropped"] / offered, "ratio", offered),
        "pool.jobs_per_frame": (ph["pool"]["jobs"] / counts["completed"], "count",
                                counts["completed"]),
        "pool.busy_frac": (
            ph["pool"]["busy_ns"] / (threads * ph["window_s"] * 1e9)
            if threads > 1 else 0.0, "ratio", 1),
        "batch.segment_batch.ms": (
            stats.median(ph["batch_call_ms"]) if ph["batch_call_ms"] else 0.0,
            "ms", len(ph["batch_call_ms"])),
        "harness.generator_lag_p50_ms": (stats.median(lag), "ms", len(lag)),
        "harness.generator_lag_max_ms": (max(lag), "ms", len(lag)),
        "harness.trace_overhead_pct": (100.0 * (untraced - traced) / untraced,
                                       "%", 2),
        "slic.kprime_min_ratio": (
            stats.kprime_min_ratio(frames, raw["superpixels"]), "ratio", len(done)),
        "harness.input_gen_s": (raw["input_gen_s"], "s", 1),
    })
    return m, counts


def layer_sum_residual(m):
    """Conversion + split + seed + iterations + connectivity + self, minus
    the segment call plus conversion and split: zero by construction of the
    span tree, checked so a broken replay cannot pass silently."""
    v = {k: val for k, (val, _, _) in m.items()}
    parts = (v["color.srgb_to_lab.ms"] + v["image.split_lab_planes.ms"] +
             v["slic.seed.ms"] + v["slic.iter.ms"] * v["slic.iterations"] +
             v["slic.connectivity.ms"] + v["slic.segment.self_ms"])
    whole = (v["slic.segment.ms"] + v["color.srgb_to_lab.ms"] +
             v["image.split_lab_planes.ms"])
    return parts - whole


def chrome_trace(raw, path):
    events = []
    for tid, lane in enumerate(raw["replay"]["lanes"]):
        for parent, name, start, dur, frame in lane:
            events.append({"name": name, "ph": "X", "pid": 0, "tid": tid,
                           "ts": start * 1000.0, "dur": dur * 1000.0,
                           "args": {"frame": frame, "parent": parent}})
    path.write_text(json.dumps({"traceEvents": events}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    # A terminated run raises, and subprocess.run then kills and reaps the
    # child it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = OUT / f"raw-{stem}.json"
    cmd = [str(BUILD / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={raw_path}"]
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log(f"perfbench: run failed: {err}")
        return 1
    raw = json.loads(raw_path.read_text())

    try:
        if args.trace:
            metrics, counts = per_layer(raw)
            residual = layer_sum_residual(metrics)
            attempted = sum(len(p["frames"]) for p in raw["phases"].values())
            attempted += raw["replay"]["frames"]
            chrome_trace(raw, OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics, counts = end_to_end(raw)
            residual = 0.0
            attempted = counts["offered"]
        gated = [k for k in metrics if args.trace or k in GATED]
    except (ValueError, RuntimeError, ZeroDivisionError) as err:
        log(f"perfbench: cannot compute the metrics: {err}")
        return 1

    failed = raw["failures"]
    correct = failed == 0 and abs(residual) < 1e-6
    for msg in raw["failure_messages"]:
        log(f"perfbench: output check failed: {msg}")
    if abs(residual) >= 1e-6:
        log(f"perfbench: per-layer times do not add up (residual {residual} ms)")

    q1, q2, q3 = stats.quartiles(raw["calibration_ms"])
    fp = raw["fingerprint"]
    e2e = raw["phases"]["e2e"]
    steal = e2e["host_steal_ticks"] / max(1, e2e["host_total_ticks"])
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fp,
        "calibration_ms": {"q1": q1, "median": q2, "q3": q3,
                           "samples": raw["calibration_ms"]},
        "input_gen_s": raw["input_gen_s"], "reference_s": raw["reference_s"],
        "host_steal_frac": steal,
        "frames": counts,
        "failed_checks": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# fingerprint: cpu='{fp['cpu_model']}' nproc={fp['nproc']} "
          f"cpu.max='{fp['cgroup_cpu_max']}' isa={fp['isa']} "
          f"pool_threads={fp['pool_threads']}")
    print(f"# calibration: median {q2:.3f} ms, quartiles {q1:.3f}..{q3:.3f} ms; "
          f"host CPU stolen during the window: {100.0 * steal:.1f}%")
    print(f"# inputs generated in {raw['input_gen_s']:.3f} s (not in setup_s); "
          f"references in {raw['reference_s']:.3f} s")
    print(f"# frames: {counts}")
    print(f"# fewest superpixels in a frame: "
          f"{stats.kprime_min_ratio(e2e['frames'], raw['superpixels']):.3f} K")
    for name, (value, unit, samples) in metrics.items():
        note = "" if name in gated else "  (reported, not gated)"
        if name == "slic.bytes_per_iter":
            note = "  (computed by Instrumentation's traffic model, not measured)"
        print(f"{name:32s} {value:14.6f} {unit:6s} n={samples}{note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in gated},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
