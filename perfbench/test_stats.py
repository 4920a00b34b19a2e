"""Tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


def frame(due, done, status=stats.OK, submit=None, prev_done=-1.0, kprime=10):
    """A frame record with only the fields the arithmetic reads."""
    submit = due if submit is None else submit
    return [0, due, submit, 0.0, prev_done, done, 0.0, 0.0, status, kprime]


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 90), 90)
        with self.assertRaises(ValueError):
            stats.percentile(values[:99], 90)

    def test_p99_needs_a_thousand_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertEqual(stats.percentile(values, 90), 180.0)
        self.assertEqual(stats.percentile(values, 50), 100.0)

    def test_empty_input_is_refused(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class OutcomeTest(unittest.TestCase):
    def test_goodput_counts_only_good_frames(self):
        frames = [
            frame(0.0, 50.0),                              # good
            frame(10.0, 250.0),                            # late (240 > 200)
            frame(20.0, -1.0, stats.SHED),
            frame(30.0, -1.0, stats.DROPPED),
            frame(40.0, 90.0, stats.CHECK_FAILED),
            frame(50.0, 250.0),                            # exactly at the limit
        ]
        counts = stats.outcomes(frames, limit_ms=200.0)
        self.assertEqual(counts, {"offered": 6, "completed": 4, "good": 2,
                                  "late": 1, "shed": 1, "dropped": 1,
                                  "failed": 1})
        self.assertAlmostEqual(stats.goodput_fps(counts, window_s=2.0), 1.0)
        self.assertAlmostEqual(stats.miss_ratio(counts), 4 / 6)

    def test_closed_loop_has_no_latency_limit(self):
        frames = [frame(0.0, 5000.0), frame(5000.0, 9000.0)]
        counts = stats.outcomes(frames, limit_ms=0.0)
        self.assertEqual(counts["good"], 2)
        self.assertEqual(stats.miss_ratio(counts), 0.0)


class LatencyTest(unittest.TestCase):
    def test_open_loop_latency_runs_from_the_due_time(self):
        # Due at 100 ms, submitted 30 ms late by a stalled generator, labels
        # out at 180 ms: the stall is charged to the frame.
        f = frame(100.0, 180.0, submit=130.0)
        self.assertAlmostEqual(stats.latency_ms(f), 80.0)
        self.assertEqual(stats.generator_lag_ms([f], closed_loop=False), [30.0])

    def test_a_stall_charges_every_later_frame(self):
        # Frames due every 10 ms all complete after a stall ending at 100 ms.
        frames = [frame(10.0 * i, 100.0 + i) for i in range(5)]
        self.assertEqual([stats.latency_ms(f) for f in frames],
                         [100.0, 91.0, 82.0, 73.0, 64.0])

    def test_closed_loop_lag_is_the_generator_gap(self):
        frames = [frame(0.0, 40.0), frame(43.0, 80.0, prev_done=40.0)]
        self.assertEqual(stats.generator_lag_ms(frames, closed_loop=True), [3.0])


class CpuTimeTest(unittest.TestCase):
    def test_cpu_time_is_divided_by_completed_frames(self):
        frames = [frame(0.0, 10.0), frame(1.0, 11.0, stats.CHECK_FAILED),
                  frame(2.0, -1.0, stats.DROPPED)]
        counts = stats.outcomes(frames, limit_ms=0.0)
        # 0.3 s of CPU over the two frames whose labels came out.
        self.assertAlmostEqual(stats.cpu_ms_per_frame(0.3, counts), 150.0)


class KprimeTest(unittest.TestCase):
    def test_fewest_superpixels_ignores_frames_without_labels(self):
        frames = [frame(0.0, 1.0, kprime=90), frame(0.0, 1.0, kprime=70),
                  frame(0.0, -1.0, stats.DROPPED, kprime=0)]
        self.assertAlmostEqual(stats.kprime_min_ratio(frames, 100), 0.7)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        lane = [
            [-1, "frame", 0.0, 10.0, 0],
            [0, "slic.segment", 1.0, 8.0, 0],
            [1, "slic.iter", 1.5, 3.0, 0],
            [1, "slic.iter", 4.5, 3.0, 0],
            [1, "slic.connectivity", 7.5, 1.0, 0],
        ]
        self.assertEqual(stats.self_times(lane), [2.0, 1.0, 3.0, 3.0, 1.0])


if __name__ == "__main__":
    unittest.main()
