#!/usr/bin/env python3
"""Pinned per-lane host-time A/B of the working tree against a revision.

    python3 scripts/ab_lanes.py --rev REV [--pairs N] [--seed S] [--cpu C]

Run from the repository root. Builds bench/bench_lanes.cc twice with
the same harness source: once against the working tree's src/ and once
against REV's src/, checked out in a temporary `git worktree` under
.ab_lanes/ (ignored). The REV binary is cached by commit and harness
version, so the worktree exists only while it builds. Then it runs the two binaries in
N alternating pairs (the order flips every pair), each pinned to CPU C,
and reads the per-lane thread CPU seconds they print.

Each pair gives a ratio per lane, REV seconds / working-tree seconds:
above 1 means the working tree is faster. The report gives each lane's
median paired ratio, a bootstrap 95% interval of that median, the pairs
won, and the median host ns per counted and per executed step of both
sides. A host claim holds only when the interval excludes 1.

The two sides must simulate the same thing: every lane digest (total
cost and steps of every run) must agree, or the script refuses to
compare and exits 1. Exits 2 when a build or a run fails.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".ab_lanes")
LANES_CMAKE = os.path.join(ROOT, "bench", "lanes")


# ---------------------------------------------------------- statistics

def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def paired_ratios(base, head):
    """base[i] / head[i] for every pair: > 1 means head is faster."""
    if len(base) != len(head):
        raise ValueError("unpaired samples")
    return [b / h for b, h in zip(base, head)]


def bootstrap_median_ci(xs, n_boot=10000, level=0.95, seed=1):
    """Percentile bootstrap interval of the median of xs (resampling
    with replacement, fixed RNG seed, so the interval is reproducible)."""
    if not xs:
        raise ValueError("bootstrap of no values")
    rng = random.Random(seed)
    n = len(xs)
    meds = sorted(median([xs[rng.randrange(n)] for _ in range(n)])
                  for _ in range(n_boot))
    tail = (1.0 - level) / 2.0
    lo = meds[int(tail * (n_boot - 1))]
    hi = meds[int((1.0 - tail) * (n_boot - 1) + 0.5)]
    return lo, hi


def summarize(base_runs, head_runs):
    """Per-lane summary from paired runs. Each run maps lane name to
    the lane's JSON record; base_runs[i] pairs with head_runs[i]."""
    out = {}
    for lane in base_runs[0]:
        base = [r[lane]["cpu_s"] for r in base_runs]
        head = [r[lane]["cpu_s"] for r in head_runs]
        ratios = paired_ratios(base, head)
        lo, hi = bootstrap_median_ci(ratios)
        out[lane] = {
            "pairs": len(ratios),
            "median_ratio": median(ratios),
            "ci95": [lo, hi],
            "wins": sum(1 for r in ratios if r > 1.0),
            "base_ns_per_counted_step": median(
                [r[lane]["ns_per_counted_step"] for r in base_runs]),
            "head_ns_per_counted_step": median(
                [r[lane]["ns_per_counted_step"] for r in head_runs]),
            "base_ns_per_executed_step": median(
                [r[lane]["ns_per_executed_step"] for r in base_runs]),
            "head_ns_per_executed_step": median(
                [r[lane]["ns_per_executed_step"] for r in head_runs]),
        }
    return out


def digest_mismatch(base_run, head_run):
    """Lanes whose digests differ between two runs (or that only one
    side printed)."""
    lanes = set(base_run) | set(head_run)
    return sorted(l for l in lanes
                  if base_run.get(l, {}).get("digest") !=
                  head_run.get(l, {}).get("digest"))


def parse_lanes(text):
    """The lane records one bench_lanes pass printed, keyed by lane."""
    runs = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            rec = json.loads(line)
            runs[rec["lane"]] = rec
    if not runs:
        raise ValueError("bench_lanes printed no lane records")
    return runs


# ------------------------------------------------------- build and run

def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def cmake_build(src_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", LANES_CMAKE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               f"-DTXRACE_SRC={src_dir}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "bench_lanes", "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "bench_lanes")


def harness_hash():
    """Short digest of the harness sources, so a cached REV binary is
    rebuilt when bench_lanes.cc or its CMake project changes."""
    h = hashlib.sha1()
    for path in (os.path.join(ROOT, "bench", "bench_lanes.cc"),
                 os.path.join(LANES_CMAKE, "CMakeLists.txt")):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def build_rev(sha):
    """bench_lanes against REV's sources, cached per commit and
    harness version."""
    build_dir = os.path.join(WORK, sha, "build-" + harness_hash())
    binary = os.path.join(build_dir, "bench_lanes")
    if os.path.isfile(binary):
        return binary
    tree = os.path.join(WORK, sha, "tree")
    if os.path.exists(tree):  # left by an interrupted earlier run
        subprocess.run(["git", "worktree", "remove", "--force", tree],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(tree, ignore_errors=True)
        git("worktree", "prune")
    git("worktree", "add", "--detach", tree, sha)
    try:
        cmake_build(os.path.join(tree, "src"), build_dir)
    finally:
        git("worktree", "remove", "--force", tree)
    return binary


def run_pinned(binary, seed, cpu):
    out = subprocess.run(
        [binary, "--seed", str(seed)], check=True, capture_output=True,
        text=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return parse_lanes(out.stdout)


def default_cpu():
    return max(os.sched_getaffinity(0))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rev", required=True,
                   help="revision to compare the working tree against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cpu", type=int, default=None,
                   help="CPU to pin both binaries to (default: the "
                        "highest one this process may use)")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        p.error("--pairs must be >= 1 and --seed >= 0")
    cpu = default_cpu() if args.cpu is None else args.cpu

    try:
        sha = git("rev-parse", "--verify", args.rev + "^{commit}")
        base_bin = build_rev(sha)
        head_bin = cmake_build(os.path.join(ROOT, "src"),
                               os.path.join(WORK, "work", "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ab_lanes: build failed: {e}", file=sys.stderr)
        return 2

    base_runs, head_runs = [], []
    try:
        for i in range(args.pairs):
            order = [("base", base_bin), ("head", head_bin)]
            if i % 2:
                order.reverse()
            got = {side: run_pinned(b, args.seed, cpu) for side, b in order}
            bad = digest_mismatch(got["base"], got["head"])
            if bad:
                print(f"ab_lanes: digests differ in {', '.join(bad)}: "
                      "the two revisions simulate different runs, so "
                      "their host times do not compare", file=sys.stderr)
                return 1
            base_runs.append(got["base"])
            head_runs.append(got["head"])
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{lane} {got['base'][lane]['cpu_s'] / got['head'][lane]['cpu_s']:.3f}x"
                for lane in got["base"]), file=sys.stderr)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"ab_lanes: run failed: {e}", file=sys.stderr)
        return 2

    summary = summarize(base_runs, head_runs)
    print(f"# {args.rev} ({sha[:12]}) vs working tree, seed {args.seed}, "
          f"cpu {cpu}, ratio = {args.rev} cpu_s / working-tree cpu_s")
    for lane, s in summary.items():
        lo, hi = s["ci95"]
        print(f"{lane:20s} {s['median_ratio']:.3f}x "
              f"[{lo:.3f}, {hi:.3f}] wins {s['wins']}/{s['pairs']}  "
              f"ns/counted {s['base_ns_per_counted_step']:.1f} -> "
              f"{s['head_ns_per_counted_step']:.1f}  "
              f"ns/executed {s['base_ns_per_executed_step']:.1f} -> "
              f"{s['head_ns_per_executed_step']:.1f}")
    print(json.dumps({"rev": sha, "seed": args.seed, "lanes": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
