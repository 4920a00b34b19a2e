"""Arithmetic of the benchmark: percentiles, frame accounting, span self time.

The measuring program (perfbench.cpp) records raw samples only; every
figure the benchmark reports is computed here, so this module is what
test_stats.py checks.

A frame record is the list the program writes for each offered frame:
[stream, due_ms, submit_ms, submit_us, prev_done_ms, done_ms, queue_ms,
latency_ms, status, kprime]. For an open loop, due_ms is the frame's place in the
fixed schedule; for a closed loop it is the submit call's entry, so
latency is measured from due_ms in both cases.
"""

import math
import statistics

(STREAM, DUE, SUBMIT, SUBMIT_US, PREV_DONE, DONE, QUEUE, LATENCY, STATUS,
 KPRIME) = range(10)
OK, SHED, DROPPED, CHECK_FAILED = range(4)

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile of `values`.

    Raises ValueError unless at least `min_beyond` samples lie beyond the
    rank, so p90 needs 100 samples and p99 needs 1000.
    """
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n == 0 or n - rank < min_beyond:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(0, n - rank)} beyond it, "
            f"needs {min_beyond}")
    return sorted(values)[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def latency_ms(frame):
    """Frame in -> labels out, from the frame's due time."""
    return frame[DONE] - frame[DUE]


def completed(frame):
    """Labels came out (a failed output check still produced labels)."""
    return frame[DONE] >= 0.0 and frame[STATUS] in (OK, CHECK_FAILED)


def outcomes(frames, limit_ms):
    """Counts every offered frame once: good, late, shed, dropped, failed.

    A frame is good when its labels passed the check and, if the workload
    has a latency limit (limit_ms > 0), arrived within it.
    """
    counts = {"offered": len(frames), "completed": 0, "good": 0, "late": 0,
              "shed": 0, "dropped": 0, "failed": 0}
    for f in frames:
        status = f[STATUS]
        if status == SHED:
            counts["shed"] += 1
        elif status == DROPPED:
            counts["dropped"] += 1
        elif status == CHECK_FAILED:
            counts["failed"] += 1
            if f[DONE] >= 0.0:
                counts["completed"] += 1
        else:
            counts["completed"] += 1
            if limit_ms > 0.0 and latency_ms(f) > limit_ms:
                counts["late"] += 1
            else:
                counts["good"] += 1
    return counts


def goodput_fps(counts, window_s):
    """Good frames per second of the measured window."""
    return counts["good"] / window_s


def miss_ratio(counts):
    """(shed + dropped + failed check + late) / offered."""
    missed = counts["shed"] + counts["dropped"] + counts["failed"] + counts["late"]
    return missed / counts["offered"]


def cpu_ms_per_frame(cpu_s, counts):
    """Process CPU time (all threads) per frame whose labels came out."""
    return cpu_s * 1000.0 / counts["completed"]


def kprime_min_ratio(frames, k):
    """Fewest superpixels in any completed frame, as a share of K."""
    return min(f[KPRIME] for f in frames if completed(f)) / k


def generator_lag_ms(frames, closed_loop):
    """How late the generator submitted each frame.

    Open loop: submit entry minus the scheduled due time. Closed loop: the
    next frame is due when the previous one completes, so the lag is the
    generator's own time between the two.
    """
    if closed_loop:
        return [f[SUBMIT] - f[PREV_DONE] for f in frames if f[PREV_DONE] >= 0.0]
    return [f[SUBMIT] - f[DUE] for f in frames]


def self_times(lane):
    """Self time of each span of one lane: its duration minus its children's.

    A span is [parent_index, name, start_ms, dur_ms, frame]; parent -1 is a
    root.
    """
    child_ms = [0.0] * len(lane)
    for span in lane:
        if span[0] >= 0:
            child_ms[span[0]] += span[3]
    return [span[3] - child_ms[i] for i, span in enumerate(lane)]
