"""Metric definitions and the arithmetic that turns perfbench_e2e's raw
output into them.

Host metrics are wall or CPU time of the simulator on the machine that
runs the benchmark. Simulated metrics are virtual-time units of the
modelled machine and repeat exactly for a given seed.
"""

import math
import statistics

# (name, unit, better, bound, kind). The bound is the share of the
# parent's median by which the metric may get worse.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "host"),
    ("runs_per_s", "1/s", "higher", 0.25, "host"),
    ("sim_steps_per_s", "1/s", "higher", 0.25, "host"),
    ("run_ms_p50", "ms", "lower", 0.25, "host"),
    ("run_ms_p90", "ms", "lower", 0.25, "host"),
    ("peak_rss_mb", "MB", "lower", 0.15, "host"),
    ("txrace_overhead_geomean", "x", "lower", 0.05, "simulated"),
    ("tsan_overhead_geomean", "x", "lower", 0.05, "simulated"),
    ("paper_err_pct", "%", "lower", 0.15, "simulated"),
    ("budget_held_frac", "fraction", "higher", 0.01, "simulated"),
    ("recall", "fraction", "higher", 0.05, "simulated"),
    ("precision", "fraction", "higher", 0.01, "simulated"),
    ("ok_runs_frac", "fraction", "higher", 0.01, "correctness"),
]

# Value printed for a simulated metric the workload does not exercise
# (tsan_overhead_geomean without a TSan lane, budget_held_frac without
# a budget, ...). It is constant, never 0, so it can neither regress
# nor divide by zero; README.md lists where it applies.
NOT_EXERCISED = 1.0

# Span names the benchmark records; each gets a self-time metric.
SPAN_NAMES = [
    "setup",
    "workloads.build",
    "pass.attribution",
    "run",
    "passes.prepare",
    "sim.decode",
    "core.runProgram",
    "telemetry.profile",
    "telemetry.metrics_json",
    "pass.serial",
    "campaign.plan",
    "campaign.execute",
    "campaign.fold",
    "campaign.finalize",
    "campaign.report",
]

# (name, unit, better). Counters and ratios come from the attribution
# pass; times come from its spans.
_BUCKETS = ["base", "txn", "conflict", "capacity", "unknown", "check"]
PER_LAYER = (
    [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.cost_pct", "%", "lower"),
        ("trace.span_ns", "ns", "lower"),
        ("trace.spans", "count", "lower"),
        ("workloads.build_ms", "ms", "lower"),
        ("passes.prepare_us", "us", "lower"),
        ("passes.elided", "count", "higher"),
        ("sim.decode_us", "us", "lower"),
        ("telemetry.profile_us", "us", "lower"),
        ("telemetry.metrics_json_us", "us", "lower"),
        ("sim.run_ms_self", "ms", "lower"),
        ("sim.steps", "count", "lower"),
        ("sim.ns_per_step", "ns", "lower"),
        ("sim.rollbacks", "count", "lower"),
        ("htm.begins", "count", "lower"),
        ("htm.commits", "count", "higher"),
        ("htm.commit_ratio", "fraction", "higher"),
        ("htm.aborts.conflict", "count", "lower"),
        ("htm.aborts.capacity", "count", "lower"),
        ("htm.aborts.unknown", "count", "lower"),
        ("htm.dir.probes", "count", "lower"),
        ("htm.dir.filter_hit_ratio", "fraction", "higher"),
        ("htm.vlog.entries", "count", "lower"),
        ("detector.reads", "count", "lower"),
        ("detector.writes", "count", "lower"),
        ("detector.epoch_fast_ratio", "fraction", "higher"),
        ("detector.replay_checks", "count", "lower"),
        ("txrace.slow_regions", "count", "lower"),
        ("txrace.window.replays", "count", "lower"),
        ("txrace.window.fallback_ratio", "fraction", "lower"),
        ("txrace.window.watch_checks", "count", "lower"),
        ("budget.windows", "count", "lower"),
        ("budget.sampled_skips", "count", "lower"),
        ("budget.site_cuts", "count", "lower"),
    ]
    + [("cost." + b, "units", "lower") for b in _BUCKETS]
    + [("cost." + b + "_share", "fraction",
        "higher" if b == "base" else "lower") for b in _BUCKETS]
    + [
        ("campaign.fold_us", "us", "lower"),
        ("campaign.report_ms", "ms", "lower"),
        ("campaign.dedup_ratio", "ratio", "higher"),
        ("campaign.steals", "count", "lower"),
    ]
    + [("self." + n + "_ms", "ms", "lower") for n in SPAN_NAMES]
)

# Percentiles are reported only with at least this many samples, so
# that p90 has ten samples beyond it.
MIN_TIMING_SAMPLES = 100


class BenchError(Exception):
    """A measurement the benchmark cannot report or a failed check."""


def timing_percentiles(samples_ms):
    """p50 and p90 of per-run times (nearest rank) and the sample
    count. Raises BenchError below MIN_TIMING_SAMPLES samples."""
    n = len(samples_ms)
    if n < MIN_TIMING_SAMPLES:
        raise BenchError(
            f"{n} run samples; percentiles need {MIN_TIMING_SAMPLES}")
    s = sorted(samples_ms)

    def rank(p):
        return s[max(0, math.ceil(p / 100.0 * n) - 1)]

    return {"p50": rank(50), "p90": rank(90), "samples": n}


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of it
    its children cover. Raises BenchError when a child lies outside
    its parent or when a tree's self times do not add up to its root
    span, which is what overlapping children would cause."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for sid, parent, _run, _name, start, end in spans:
        if end < start:
            raise BenchError(f"span {sid} ends before it starts")
        if parent:
            p = by_id.get(parent)
            if p is None or start < p[4] or end > p[5]:
                raise BenchError(f"span {sid} lies outside its parent")
            children.setdefault(parent, []).append((start, end))
    selfs = {}
    for sid, _parent, _run, _name, start, end in spans:
        covered, cursor = 0, start
        for cs, ce in sorted(children.get(sid, [])):
            cs = max(cs, cursor)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        selfs[sid] = (end - start) - covered
    totals = {}
    for sid, parent, *_ in spans:
        root = sid
        while by_id[root][1]:
            root = by_id[root][1]
        totals[root] = totals.get(root, 0) + selfs[sid]
    for root, total in totals.items():
        r = by_id[root]
        if total != r[5] - r[4]:
            raise BenchError(
                f"self times of span tree {root} add up to {total} ns, "
                f"its root span lasts {r[5] - r[4]} ns")
    return selfs


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw):
    """The END_TO_END metrics of an untraced run and the timing sample
    count."""
    passes = raw["passes"]
    if not passes:
        raise BenchError("no measured pass")
    samples = [ns / 1e6 for p in passes for ns in p["run_ns"]]
    pct = timing_percentiles(samples)
    walls = [p["wall_ns"] / 1e9 for p in passes]
    attempted = sum(p["runs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "runs_per_s": statistics.median(
            p["runs"] / w for p, w in zip(passes, walls)),
        "sim_steps_per_s": statistics.median(
            p["steps"] / w for p, w in zip(passes, walls)),
        "run_ms_p50": pct["p50"],
        "run_ms_p90": pct["p90"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_runs_frac": 1.0 - failed / attempted,
    }
    for name, *_ in END_TO_END:
        if name not in values:
            v = raw["sim"].get(name)
            values[name] = NOT_EXERCISED if v is None else v
    return values, pct["samples"]


def per_layer(raw):
    """The PER_LAYER metrics of a traced run."""
    spans = raw["spans"]
    selfs = self_times(spans)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(raw["layers"])

    dur = {}
    for sid, _parent, _run, name, start, end in spans:
        dur.setdefault(name, []).append(end - start)
    self_by_name = {}
    for s in spans:
        self_by_name.setdefault(s[3], []).append(selfs[s[0]])
    for name in SPAN_NAMES:
        values["self." + name + "_ms"] = _mean(
            self_by_name.get(name, [])) / 1e6

    setups = len(dur.get("setup", []))
    values["workloads.build_ms"] = (
        sum(dur.get("workloads.build", [])) / setups / 1e6
        if setups else 0.0)
    values["passes.prepare_us"] = _mean(dur.get("passes.prepare", [])) / 1e3
    values["sim.decode_us"] = _mean(dur.get("sim.decode", [])) / 1e3
    values["telemetry.profile_us"] = _mean(
        dur.get("telemetry.profile", [])) / 1e3
    values["telemetry.metrics_json_us"] = _mean(
        dur.get("telemetry.metrics_json", [])) / 1e3
    values["campaign.fold_us"] = _mean(dur.get("campaign.fold", [])) / 1e3
    values["campaign.report_ms"] = _mean(
        dur.get("campaign.report", [])) / 1e6

    # Step-loop self time: core.runProgram minus the sibling prepare
    # and decode probes of the same run (runProgram repeats both).
    by_id = {s[0]: s for s in spans}
    per_run = {}
    for sid, parent, run, name, start, end in spans:
        if parent and by_id[parent][3] == "run":
            per_run.setdefault(parent, {})[name] = end - start
    run_self = [
        r["core.runProgram"] - r.get("passes.prepare", 0)
        - r.get("sim.decode", 0)
        for r in per_run.values() if "core.runProgram" in r
    ]
    values["sim.run_ms_self"] = _mean(run_self) / 1e6
    steps = raw["layers"].get("sim.steps", 0)
    values["sim.ns_per_step"] = sum(run_self) / steps if steps else 0.0

    # Each pair ran back to back, so its ratio is the least exposed to
    # the host's drift.
    plain = raw["overhead"]["plain_ns"]
    traced = raw["overhead"]["traced_ns"]
    if not plain or len(plain) != len(traced):
        raise BenchError("no traced/untraced pass pair")
    values["trace.overhead_pct"] = (statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0) * 100.0
    values["trace.spans"] = float(len(spans))
    # Recorder cost of one traced serial pass as a share of it.
    serial = [s[0] for s in spans if s[3] == "pass.serial"]
    if serial:
        in_serial = set(serial)
        for sid, parent, *_ in spans:
            if parent in in_serial:
                in_serial.add(sid)
        per_pass = len(in_serial) / len(serial)
        values["trace.cost_pct"] = (values.get("trace.span_ns", 0.0)
                                    * per_pass
                                    / statistics.median(traced) * 100.0)
    return values


def assemble(raw, trace):
    """(result line dict, human-readable table lines, failed checks)."""
    failures = list(raw["failures"])
    passes = raw["passes"]
    attempted = sum(p["runs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    table = []
    metrics = {}
    try:
        if trace:
            values = per_layer(raw)
            spec = PER_LAYER
        else:
            values, samples = end_to_end(raw)
            spec = [m[:3] for m in END_TO_END]
            kinds = {m[0]: m[4] for m in END_TO_END}
        for name, unit, better in spec:
            v = values[name]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise BenchError(f"{name} is not a finite number")
            if not trace and v <= 0:
                raise BenchError(f"{name} is {v}; it must be positive")
            metrics[name] = {"value": v, "unit": unit}
            note = ""
            if not trace:
                note = f" [{kinds[name]}]"
                if name.startswith("run_ms_"):
                    note += f" (n={samples})"
            table.append(f"{name:32} {v:>18.6g} {unit:9} "
                         f"better={better}{note}")
    except BenchError as e:
        failures.append(str(e))
    if attempted < 1:
        failures.append("no run attempted")
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, table, failures
