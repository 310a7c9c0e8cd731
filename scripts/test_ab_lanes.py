#!/usr/bin/env python3
"""Unit tests for the statistics and parsing of ab_lanes.py.

No build and no benchmark run: the lane records are canned.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ab_lanes  # noqa: E402


def lane(name, cpu_s, digest="0x1", counted=1000, prerun=0):
    return {"lane": name, "cpu_s": cpu_s, "counted_steps": counted,
            "prerun_steps": prerun,
            "ns_per_counted_step": cpu_s * 1e9 / counted,
            "ns_per_executed_step": cpu_s * 1e9 / (counted + prerun),
            "digest": digest}


class Median(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(ab_lanes.median([3, 1, 2]), 2)
        self.assertEqual(ab_lanes.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(ab_lanes.median([7]), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            ab_lanes.median([])


class PairedRatios(unittest.TestCase):
    def test_base_over_head(self):
        self.assertEqual(ab_lanes.paired_ratios([2.0, 3.0], [1.0, 2.0]),
                         [2.0, 1.5])

    def test_unpaired_is_an_error(self):
        with self.assertRaises(ValueError):
            ab_lanes.paired_ratios([1.0], [1.0, 2.0])


class Bootstrap(unittest.TestCase):
    def test_constant_sample_has_a_point_interval(self):
        self.assertEqual(ab_lanes.bootstrap_median_ci([1.2] * 8),
                         (1.2, 1.2))

    def test_interval_brackets_the_median_and_is_reproducible(self):
        xs = [1.05, 1.12, 1.08, 1.20, 1.10, 1.15, 1.09, 1.11, 1.13, 1.07]
        lo, hi = ab_lanes.bootstrap_median_ci(xs)
        self.assertLessEqual(lo, ab_lanes.median(xs))
        self.assertGreaterEqual(hi, ab_lanes.median(xs))
        self.assertGreaterEqual(lo, min(xs))
        self.assertLessEqual(hi, max(xs))
        self.assertGreater(lo, 1.0)  # a clear win excludes 1
        self.assertEqual((lo, hi), ab_lanes.bootstrap_median_ci(xs))

    def test_noise_around_one_includes_one(self):
        xs = [0.95, 1.04, 0.99, 1.02, 0.97, 1.05, 1.01, 0.96]
        lo, hi = ab_lanes.bootstrap_median_ci(xs)
        self.assertLess(lo, 1.0)
        self.assertGreater(hi, 1.0)


class Summarize(unittest.TestCase):
    def test_per_lane_summary(self):
        base = [{"Native": lane("Native", 2.0), "TSan": lane("TSan", 3.0)},
                {"Native": lane("Native", 2.2), "TSan": lane("TSan", 3.0)},
                {"Native": lane("Native", 2.1), "TSan": lane("TSan", 3.0)}]
        head = [{"Native": lane("Native", 1.0), "TSan": lane("TSan", 3.0)},
                {"Native": lane("Native", 2.0), "TSan": lane("TSan", 3.0)},
                {"Native": lane("Native", 1.4), "TSan": lane("TSan", 3.0)}]
        s = ab_lanes.summarize(base, head)
        self.assertEqual(s["Native"]["pairs"], 3)
        self.assertAlmostEqual(s["Native"]["median_ratio"], 1.5)
        self.assertEqual(s["Native"]["wins"], 3)
        self.assertEqual(s["TSan"]["median_ratio"], 1.0)
        self.assertEqual(s["TSan"]["wins"], 0)
        self.assertAlmostEqual(s["Native"]["base_ns_per_counted_step"],
                               2.1e6)
        self.assertAlmostEqual(s["Native"]["head_ns_per_counted_step"],
                               1.4e6)


class Records(unittest.TestCase):
    def test_parse_skips_other_lines(self):
        text = ('warning: something\n'
                '{"lane": "Native", "cpu_s": 1.0, "digest": "0xa"}\n'
                '{"lane": "TSan", "cpu_s": 2.0, "digest": "0xb"}\n')
        runs = ab_lanes.parse_lanes(text)
        self.assertEqual(sorted(runs), ["Native", "TSan"])
        self.assertEqual(runs["TSan"]["cpu_s"], 2.0)

    def test_parse_refuses_empty_output(self):
        with self.assertRaises(ValueError):
            ab_lanes.parse_lanes("nothing here\n")

    def test_digest_mismatch_names_the_lanes(self):
        a = {"Native": lane("Native", 1.0, "0x1"),
             "TSan": lane("TSan", 1.0, "0x2")}
        b = {"Native": lane("Native", 1.0, "0x1"),
             "TSan": lane("TSan", 1.0, "0x3")}
        self.assertEqual(ab_lanes.digest_mismatch(a, a), [])
        self.assertEqual(ab_lanes.digest_mismatch(a, b), ["TSan"])
        del b["TSan"]
        self.assertEqual(ab_lanes.digest_mismatch(a, b), ["TSan"])


if __name__ == "__main__":
    unittest.main()
