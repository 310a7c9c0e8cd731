#!/usr/bin/env python3
"""Unit tests for the baseline regression gate of bench_compare.py.

The inputs are synthetic google-benchmark JSON files, so the tests
need no benchmark binary and no particular host speed.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_compare  # noqa: E402

ANCHOR = "BM_HostAnchor"


def gbench(rates):
    """google-benchmark JSON: one iteration entry per name and rate."""
    return {
        "context": {},
        "benchmarks": [
            {"name": name, "run_name": name, "run_type": "iteration",
             "items_per_second": ips}
            for name, ips in rates.items()
        ],
    }


def gate(cur, base, max_regress=0.25):
    """Run check_baseline quietly; return its verdict."""
    with contextlib.redirect_stdout(io.StringIO()):
        return bench_compare.check_baseline(cur, base, ANCHOR,
                                            max_regress)


class CheckBaselineTest(unittest.TestCase):
    BASE = {ANCHOR: 200e6, "BM_SimComputeDecoded": 100e6,
            "BM_SimSyncDecoded": 60e6}

    def test_unchanged_passes(self):
        self.assertTrue(gate(dict(self.BASE), self.BASE))

    def test_slower_host_passes_after_normalisation(self):
        # Every number halves, anchor included: the same code on a
        # host half as fast.
        cur = {k: v / 2 for k, v in self.BASE.items()}
        self.assertTrue(gate(cur, self.BASE))

    def test_regression_within_bound_passes(self):
        cur = dict(self.BASE, BM_SimSyncDecoded=60e6 * 0.8)
        self.assertTrue(gate(cur, self.BASE))

    def test_regression_beyond_bound_fails(self):
        cur = dict(self.BASE, BM_SimSyncDecoded=60e6 * 0.7)
        self.assertFalse(gate(cur, self.BASE))

    def test_regression_hidden_by_faster_host_fails(self):
        # Raw throughput is unchanged, but the anchor says the host is
        # twice as fast, so the probe regressed by half.
        cur = dict(self.BASE, **{ANCHOR: 400e6})
        self.assertFalse(gate(cur, self.BASE))

    def test_max_regress_is_honoured(self):
        cur = dict(self.BASE, BM_SimSyncDecoded=60e6 * 0.7)
        self.assertTrue(gate(cur, self.BASE, max_regress=0.35))

    def test_missing_calibration_fails(self):
        cur = {k: v for k, v in self.BASE.items() if k != ANCHOR}
        self.assertFalse(gate(cur, self.BASE))
        self.assertFalse(gate(dict(self.BASE), cur))

    def test_no_shared_benchmark_fails(self):
        self.assertFalse(gate({ANCHOR: 1.0, "BM_A": 1.0},
                              {ANCHOR: 1.0, "BM_B": 1.0}))


class CommandLineTest(unittest.TestCase):
    """The CURRENT --baseline --calibration path CI runs."""

    def run_gate(self, cur, base, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rates in (("cur.json", cur), ("base.json", base)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(gbench(rates), f)
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "bench_compare.py"),
                 paths[0], "--baseline", paths[1],
                 "--calibration", ANCHOR, *extra],
                capture_output=True, text=True)
            return proc.returncode, proc.stdout

    def test_pass_and_fail_exit_codes(self):
        base = {ANCHOR: 200e6, "BM_SimTxDecoded": 25e6}
        code, out = self.run_gate(dict(base), base)
        self.assertEqual(code, 0, out)
        code, out = self.run_gate(dict(base, BM_SimTxDecoded=15e6), base)
        self.assertEqual(code, 1, out)
        code, out = self.run_gate(dict(base, BM_SimTxDecoded=15e6), base,
                                  "--max-regress", "0.5")
        self.assertEqual(code, 0, out)

    def test_missing_calibration_exit_code(self):
        base = {ANCHOR: 200e6, "BM_SimTxDecoded": 25e6}
        code, out = self.run_gate({"BM_SimTxDecoded": 25e6}, base)
        self.assertEqual(code, 1, out)
        self.assertIn("calibration", out)


if __name__ == "__main__":
    unittest.main()
