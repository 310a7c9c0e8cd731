#!/usr/bin/env python3
"""Full-registry end-to-end benchmark of the TxRace simulator.

    python3 perfbench/run.py --workload hunt-sweep|table1-long|monitor-stream
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_e2e from the
repository's sources (first run only; later runs rebuild what changed)
under $CARGO_TARGET_DIR or .bench_build, runs one workload, checks its
outputs and prints the metrics, one per line, followed by a final JSON
line {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when a check
fails and 2 when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ["hunt-sweep", "table1-long", "monitor-stream"]
# The binary's own limit is a few times --seconds; this one only stops
# a hung child.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def binary_args(binary, args, out):
    return [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out", out]


def build():
    """Configure (once) and build perfbench_e2e; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_e2e")


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    # The raw document (spans included) stays next to the build.
    out = os.path.join(build_dir(), f"raw-{args.workload}-{args.seed}-"
                       f"{args.trace}.json")
    try:
        subprocess.run(binary_args(binary, args, out), check=True,
                       timeout=RUN_TIMEOUT_S)
        with open(out) as f:
            raw = json.load(f)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 2

    result, table, failures = metrics.assemble(raw, bool(args.trace))
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace} pool {raw['pool_width']}")
    for line in table:
        print(line)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
