#!/usr/bin/env python3
"""Exact gate on the simulated end-to-end metrics of perfbench.

For each perfbench workload this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 2 --trace 0

requires its final JSON line to say "correct": true, and compares the
simulated metrics (plus ok_runs_frac) with the values committed in
BENCH_e2e.json at the repository root. Simulated results are a pure
function of (workload, seed), so the comparison is exact: any
difference is a change in what the simulator computes, and must be
re-recorded on purpose (--record) and stated as a re-baseline.

Host metrics (runs_per_s, sim_steps_per_s, ...) are not compared;
they depend on the machine.

Usage:
  check_e2e.py [--baseline BENCH_e2e.json] [--record]

Exit status 0 when every workload matches, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hunt-sweep", "table1-long", "monitor-stream")
METRICS = ("txrace_overhead_geomean", "tsan_overhead_geomean",
           "paper_err_pct", "budget_held_frac", "recall", "precision",
           "ok_runs_frac")
SEED = 1
SECONDS = 2


def run_workload(workload):
    """Run perfbench on @p workload; returns its stdout."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    return proc.stdout


def parse_result(stdout):
    """The final JSON line of a perfbench run, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def simulated(result):
    """The gated metrics of one perfbench result, by name."""
    return {name: result["metrics"][name]["value"] for name in METRICS}


def compare(workload, result, baseline):
    """Errors (strings) of one workload's result against the baseline."""
    if result is None:
        return [f"{workload}: no result line from perfbench"]
    if result.get("correct") is not True:
        return [f"{workload}: perfbench reports correct="
                f"{result.get('correct')!r}"]
    want = baseline.get(workload)
    if want is None:
        return [f"{workload}: not in the baseline"]
    errors = []
    for name in METRICS:
        got = result.get("metrics", {}).get(name, {}).get("value")
        if got is None:
            errors.append(f"{workload}: {name} missing from the result")
        elif name not in want:
            errors.append(f"{workload}: {name} missing from the baseline")
        elif got != want[name]:
            errors.append(f"{workload}: {name} = {got!r}, baseline "
                          f"{want[name]!r}")
    return errors


def main(argv, run=run_workload):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline", default=os.path.join(ROOT,
                                                      "BENCH_e2e.json"))
    p.add_argument("--record", action="store_true",
                   help="write the measured values as the new baseline")
    args = p.parse_args(argv)

    baseline = {}
    if os.path.isfile(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)
    elif not args.record:
        print(f"check_e2e: no baseline at {args.baseline}")
        return 1

    errors = []
    for workload in WORKLOADS:
        result = parse_result(run(workload))
        if args.record:
            if result is None or result.get("correct") is not True:
                errors.append(f"{workload}: cannot record a run that "
                              f"is not correct")
                continue
            baseline[workload] = simulated(result)
            print(f"{workload}: recorded")
            continue
        errs = compare(workload, result, baseline)
        errors += errs
        print(f"{workload}: {'FAIL' if errs else 'ok'}")

    if args.record and not errors:
        baseline["_protocol"] = (f"perfbench/run.py --seed {SEED} "
                                 f"--seconds {SECONDS} --trace 0")
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
    for e in errors:
        print(f"E2E GATE FAILED: {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
