#!/usr/bin/env python3
"""The benchmark's own tests: input determinism and the layer-report math.

    python3 perfbench/test_perfbench.py

Run from the root of the source tree; builds the driver first (see run.py).
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import run  # noqa: E402


class StreamDigestTest(unittest.TestCase):
    """A seed fixes the request stream: settings, requests and verdicts."""

    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def digest(self, workload, seed):
        out = subprocess.run(
            [self.driver, "--digest", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        return out.stdout.strip()

    def test_same_seed_gives_the_same_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, run.DEFAULT_SEED)
                self.assertRegex(first, "^[0-9a-f]{16}$")
                self.assertEqual(first, self.digest(workload, run.DEFAULT_SEED))

    def test_held_out_seed_gives_another_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, run.DEFAULT_SEED),
                                    self.digest(workload, run.HELD_OUT_SEED))


class LayerMathTest(unittest.TestCase):
    def test_covered_is_the_union_length(self):
        self.assertEqual(layers.covered([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(layers.covered([(0, 10), (2, 3)]), 10)
        self.assertEqual(layers.covered([]), 0)

    def test_quantile_interpolates_between_ranks(self):
        self.assertEqual(layers.quantile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(layers.quantile([0, 10], 0.9), 9)
        self.assertEqual(layers.quantile([], 0.5), 0)

    def test_batch_traces_attach_to_the_enclosing_call(self):
        calls = [
            {"id": 1, "trace_id": 0, "start_us": 100.4, "end_us": 200.0},
            {"id": 2, "trace_id": 0, "start_us": 300.0, "end_us": 400.0},
            {"id": 3, "trace_id": 7, "start_us": 500.0, "end_us": 510.0},
        ]
        traces = {
            11: {"start": 100, "end": 150},  # truncated below its call's start
            12: {"start": 350, "end": 390},
            13: {"start": 250, "end": 260},  # between calls: unattached
            7: {"start": 501, "end": 509},   # async: matched by trace id
        }
        by_call = layers.attach(calls, traces)
        self.assertEqual(by_call[1], [traces[11]])
        self.assertEqual(by_call[2], [traces[12]])
        self.assertEqual(by_call[3], [traces[7]])


if __name__ == "__main__":
    unittest.main()
