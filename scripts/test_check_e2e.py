#!/usr/bin/env python3
"""Unit tests for the exact simulated-metric gate, check_e2e.py.

perfbench is replaced by canned output, so the tests need no build.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_e2e  # noqa: E402

VALUES = {
    "txrace_overhead_geomean": 4.130757350226401,
    "tsan_overhead_geomean": 11.378433846129631,
    "paper_err_pct": 25.143197068950627,
    "budget_held_frac": 1.0,
    "recall": 0.995049504950495,
    "precision": 1,
    "ok_runs_frac": 1.0,
}


def perfbench_stdout(values, correct=True, host=123.0):
    """Canned perfbench output: a table line, then the JSON line."""
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    metrics["runs_per_s"] = {"value": host, "unit": "1/s"}
    doc = {"correct": correct, "attempted": 10, "failed": 0,
           "metrics": metrics}
    return "# workload w seed 1\nruns_per_s 123 1/s\n" + json.dumps(doc)


class Gate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "BENCH_e2e.json")

    def tearDown(self):
        self.tmp.cleanup()

    def main(self, argv, outputs):
        """Run main() quietly with perfbench replaced by @p outputs."""
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = check_e2e.main(["--baseline", self.path] + argv,
                                run=lambda w: outputs[w])
        return rc, out.getvalue()

    def record(self, values):
        outputs = {w: perfbench_stdout(values) for w in check_e2e.WORKLOADS}
        rc, _ = self.main(["--record"], outputs)
        self.assertEqual(rc, 0)
        return outputs

    def test_identical_run_passes(self):
        outputs = self.record(VALUES)
        rc, out = self.main([], outputs)
        self.assertEqual(rc, 0, out)

    def test_host_metrics_are_ignored(self):
        self.record(VALUES)
        outputs = {w: perfbench_stdout(VALUES, host=1.0)
                   for w in check_e2e.WORKLOADS}
        rc, out = self.main([], outputs)
        self.assertEqual(rc, 0, out)

    def test_any_change_in_a_gated_metric_fails(self):
        self.record(VALUES)
        for name in check_e2e.METRICS:
            moved = dict(VALUES)
            # The smallest possible move: the next double up.
            moved[name] = math.nextafter(VALUES[name], math.inf)
            outputs = {w: perfbench_stdout(VALUES)
                       for w in check_e2e.WORKLOADS}
            outputs["table1-long"] = perfbench_stdout(moved)
            rc, out = self.main([], outputs)
            self.assertEqual(rc, 1, name)
            self.assertIn(f"table1-long: {name}", out)

    def test_incorrect_run_fails(self):
        self.record(VALUES)
        outputs = {w: perfbench_stdout(VALUES) for w in check_e2e.WORKLOADS}
        outputs["monitor-stream"] = perfbench_stdout(VALUES, correct=False)
        rc, out = self.main([], outputs)
        self.assertEqual(rc, 1)
        self.assertIn("monitor-stream: perfbench reports correct", out)

    def test_missing_result_line_fails(self):
        self.record(VALUES)
        outputs = {w: perfbench_stdout(VALUES) for w in check_e2e.WORKLOADS}
        outputs["hunt-sweep"] = "perfbench: build failed\n"
        rc, out = self.main([], outputs)
        self.assertEqual(rc, 1)
        self.assertIn("hunt-sweep: no result line", out)

    def test_missing_baseline_fails(self):
        outputs = {w: perfbench_stdout(VALUES) for w in check_e2e.WORKLOADS}
        rc, out = self.main([], outputs)
        self.assertEqual(rc, 1)
        self.assertIn("no baseline", out)

    def test_record_refuses_an_incorrect_run(self):
        outputs = {w: perfbench_stdout(VALUES, correct=False)
                   for w in check_e2e.WORKLOADS}
        rc, _ = self.main(["--record"], outputs)
        self.assertEqual(rc, 1)
        self.assertFalse(os.path.exists(self.path))

    def test_recorded_file_holds_exact_values(self):
        self.record(VALUES)
        with open(self.path) as f:
            doc = json.load(f)
        for w in check_e2e.WORKLOADS:
            self.assertEqual(doc[w], VALUES)

    def test_committed_baseline_covers_every_workload(self):
        with open(os.path.join(check_e2e.ROOT, "BENCH_e2e.json")) as f:
            doc = json.load(f)
        for w in check_e2e.WORKLOADS:
            self.assertEqual(sorted(doc[w]), sorted(check_e2e.METRICS), w)


if __name__ == "__main__":
    unittest.main()
