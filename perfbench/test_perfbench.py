"""Tests of the benchmark's own logic: metric naming, seed plumbing,
the percentile rule and the span self-time check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed-plumbing test that runs perfbench_e2e is skipped until
perfbench/run.py has built it.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


def raw_doc(trace, runs_per_pass=60, passes=2):
    """A minimal perfbench_e2e document."""
    doc = {
        "workload": "table1-long", "seed": 1, "trace": trace,
        "pool_width": 4, "setup_ns": [3e8, 2e8, 4e8],
        "peak_rss_kb": 20480,
        "passes": [{"wall_ns": 2e9, "runs": runs_per_pass, "failed": 0,
                    "steps": 10**7, "digest": "ab",
                    "run_ns": [1e6 * (i + 1) for i in range(runs_per_pass)]}
                   for _ in range(passes)],
        "sim": {"txrace_overhead_geomean": 4.1,
                "tsan_overhead_geomean": 11.4, "paper_err_pct": 25.0,
                "budget_held_frac": None, "recall": 0.99,
                "precision": 1.0, "false_positives": 0},
        "layers": {"sim.steps": 1000.0, "htm.begins": 5.0},
        "overhead": {"plain_ns": [100, 110], "traced_ns": [104, 112]},
        "failures": [],
        "spans": [],
    }
    if trace:
        doc["spans"] = [
            [1, 0, 0, "setup", 0, 100],
            [2, 1, 0, "workloads.build", 10, 90],
            [3, 0, 0, "pass.attribution", 200, 1000],
            [4, 3, 1, "run", 210, 900],
            [5, 4, 1, "passes.prepare", 220, 260],
            [6, 4, 1, "sim.decode", 260, 280],
            [7, 4, 1, "core.runProgram", 300, 800],
        ]
    return doc


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_definitions_match(self):
        e2e = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in self.spec["end_to_end"]]
        self.assertEqual(e2e, [m[:4] for m in metrics.END_TO_END])
        layer = [(m["name"], m["unit"], m["better"])
                 for m in self.spec["per_layer"]]
        self.assertEqual(layer, metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)
        self.assertIn(("setup_s", "s", "lower"),
                      [m[:3] for m in metrics.END_TO_END])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def check_printed(self, trace, defs):
        result, table, failures = metrics.assemble(raw_doc(trace), trace)
        self.assertEqual(failures, [])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in defs})
        for m in defs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            line = [row for row in table
                    if row.split()[0] == m["name"]]
            self.assertEqual(len(line), 1, m["name"])
            self.assertIn(f" {m['unit']} ", line[0])
            self.assertIn(f"better={m['better']}", line[0])

    def test_every_end_to_end_metric_printed(self):
        self.check_printed(False, self.spec["end_to_end"])

    def test_every_per_layer_metric_printed(self):
        self.check_printed(True, self.spec["per_layer"])

    def test_names_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"]
                 + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class Percentiles(unittest.TestCase):
    def test_rule_needs_100_samples(self):
        with self.assertRaises(metrics.BenchError):
            metrics.timing_percentiles(list(range(99)))
        p = metrics.timing_percentiles([float(i) for i in range(1, 101)])
        self.assertEqual(p, {"p50": 50.0, "p90": 90.0, "samples": 100})

    def test_too_few_samples_fail_the_run(self):
        result, _, failures = metrics.assemble(
            raw_doc(False, runs_per_pass=40), False)
        self.assertFalse(result["correct"])
        self.assertTrue(any("percentiles need" in f for f in failures))

    def test_samples_pooled_across_passes(self):
        values, samples = metrics.end_to_end(raw_doc(False, 60, 2))
        self.assertEqual(samples, 120)
        self.assertEqual(values["run_ms_p50"], 30.0)


class EndToEnd(unittest.TestCase):
    def test_not_exercised_metric_is_neutral(self):
        values, _ = metrics.end_to_end(raw_doc(False))
        self.assertEqual(values["budget_held_frac"],
                         metrics.NOT_EXERCISED)

    def test_zero_metric_fails(self):
        doc = raw_doc(False)
        doc["sim"]["recall"] = 0.0
        result, _, _ = metrics.assemble(doc, False)
        self.assertFalse(result["correct"])

    def test_program_failures_propagate(self):
        doc = raw_doc(False)
        doc["failures"] = ["simulated results differ: across repeats"]
        result, _, failures = metrics.assemble(doc, False)
        self.assertFalse(result["correct"])
        self.assertIn(doc["failures"][0], failures)

    def test_failed_runs_counted(self):
        doc = raw_doc(False)
        doc["passes"][0]["failed"] = 3
        result, _, _ = metrics.assemble(doc, False)
        self.assertEqual(result["attempted"], 120)
        self.assertEqual(result["failed"], 3)
        self.assertAlmostEqual(
            result["metrics"]["ok_runs_frac"]["value"], 1 - 3 / 120)


class SelfTimes(unittest.TestCase):
    def test_self_time_sums_to_root(self):
        spans = raw_doc(True)["spans"]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[1], 20)
        self.assertEqual(selfs[4], 690 - 40 - 20 - 500)
        self.assertEqual(sum(selfs[i] for i in (3, 4, 5, 6, 7)), 800)

    def test_overlapping_children_rejected(self):
        spans = [[1, 0, 0, "run", 0, 100],
                 [2, 1, 0, "sim.decode", 10, 60],
                 [3, 1, 0, "core.runProgram", 50, 90]]
        with self.assertRaises(metrics.BenchError):
            metrics.self_times(spans)

    def test_child_outside_parent_rejected(self):
        spans = [[1, 0, 0, "run", 0, 100],
                 [2, 1, 0, "sim.decode", 90, 120]]
        with self.assertRaises(metrics.BenchError):
            metrics.self_times(spans)

    def test_step_loop_self_time(self):
        values = metrics.per_layer(raw_doc(True))
        self.assertEqual(values["sim.run_ms_self"], (500 - 40 - 20) / 1e6)
        self.assertEqual(values["sim.ns_per_step"], 440 / 1000)
        self.assertAlmostEqual(values["trace.overhead_pct"],
                               ((104 / 100 + 112 / 110) / 2 - 1) * 100)


    def test_recorder_cost_share(self):
        doc = raw_doc(True)
        doc["spans"] += [[8, 0, 0, "pass.serial", 2000, 2100],
                         [9, 8, 1, "core.runProgram", 2010, 2050],
                         [10, 8, 2, "core.runProgram", 2050, 2090]]
        doc["layers"]["trace.span_ns"] = 2.0
        values = metrics.per_layer(doc)
        self.assertAlmostEqual(values["trace.cost_pct"], 2.0 * 3 / 108 * 100)


class SeedPlumbing(unittest.TestCase):
    def test_seed_reaches_the_program(self):
        args = run.parse_args(["--workload", "monitor-stream", "--seed",
                               "7", "--seconds", "2", "--trace", "0"])
        argv = run.binary_args("bin", args, "out.json")
        self.assertEqual(argv[argv.index("--seed") + 1], "7")
        self.assertEqual(argv[argv.index("--workload") + 1],
                         "monitor-stream")

    def test_bad_arguments_rejected(self):
        for bad in (["--seed", "-1"], ["--seconds", "0"],
                    ["--workload", "nope"]):
            argv = {"--workload": "hunt-sweep", "--seed": "1",
                    "--seconds": "1", "--trace": "0"}
            argv[bad[0]] = bad[1]
            flat = [x for kv in argv.items() for x in kv]
            with self.assertRaises(SystemExit):
                run.parse_args(flat)

    @unittest.skipUnless(
        os.path.isfile(os.path.join(run.build_dir(), "perfbench_e2e")),
        "perfbench_e2e not built yet")
    def test_same_seed_same_inputs(self):
        binary = os.path.join(run.build_dir(), "perfbench_e2e")

        def digests(seed):
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "raw.json")
                args = run.parse_args(["--workload", "monitor-stream",
                                       "--seed", str(seed), "--seconds",
                                       "0.1", "--trace", "0"])
                subprocess.run(run.binary_args(binary, args, out),
                               check=True)
                with open(out) as f:
                    doc = json.load(f)
            self.assertEqual(doc["failures"], [])
            return {p["digest"] for p in doc["passes"]}, doc["sim"]

        a, b, c = digests(3), digests(3), digests(4)
        self.assertEqual(a, b)
        self.assertEqual(len(a[0]), 1)
        self.assertNotEqual(a[0], c[0])


if __name__ == "__main__":
    unittest.main()
