"""Layered benchmark of mstd: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan-serial --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the library is imported from its
src/. --trace 0 measures the end-to-end metrics; --trace 1 is the
separate traced run that gives the per-layer metrics. Either way the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric by name with
its unit, the sample counts and the run metadata. bench/README.md
defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
from statistics import median, quantiles
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BENCHMARK.json is the one list of workloads and metrics, with their
# units and bounds; the code below only derives the names it iterates over
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

ENGINES = ("largest", "minsize", "appairs", "twoap", "partition3")
COUNTED = ENGINES[:4]  # partition3 reports no candidate count
CLI_GROUPS = ("arith", "notation", "lemma", "construct", "search")
KERNEL_CLASSES = ("n8", "n19", "n64")

SETUP_REPS = 11
# two passes give each call a median; cli-procs needs 8 so that more
# than 10 of its ~130 process samples lie beyond p90
MIN_PASSES = {"cli-procs": 8}
UNCONTROLLED = ("CPU frequency, the file cache, huge pages and other tenants of "
                "the machine are not controlled")


def p90(xs):
    return quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


# ---------------------------------------------------------------------------
# metadata


def git_commit():
    # read .git directly: the checkout may not be a repository, and git
    # itself would search parent directories
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(workload, seed, seconds, trace):
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": os.getloadavg(),
        "src_lines": src_lines, "uncontrolled": UNCONTROLLED,
    }


# ---------------------------------------------------------------------------
# set-up


def setup_only(workload, seed):
    """Child-process body: import mstd, generate the inputs, print the seconds."""
    t0 = time.perf_counter()
    import mixes
    mixes.make_inputs(workload, seed)
    print(time.perf_counter() - t0)


def measure_setup(workload, seed):
    """Median set-up seconds over fresh interpreters, raw and at nominal host speed.

    Each interpreter is bracketed by bare interpreter processes, the
    process reference of mixes.REFERENCES: start-up and imports drift
    together.
    """
    import mixes
    raw, adjusted = [], []
    after = mixes.bare_start()
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        before, after = after, mixes.bare_start()
        seconds = float(done.stdout.split()[-1])
        raw.append(seconds)
        adjusted.append(seconds * 2 * mixes.BARE_NOMINAL_S / (before + after))
    return median(raw), median(adjusted)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced(workload, seed, seconds):
    import mixes
    from spans import Tracer

    setup_raw, setup_s = measure_setup(workload, seed)
    inputs = mixes.make_inputs(workload, seed)
    rec = mixes.Recorder(Tracer("untraced", enabled=False), calibrated=True)
    passes = []
    start = time.perf_counter()
    min_passes = MIN_PASSES.get(workload, 2)
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(mixes.run_pass(workload, rec, inputs, len(passes)))
        mixes.run_side(workload, rec, inputs, len(passes))

    # every pass makes the same calls in the same order; the pass time is
    # assembled from each call's median over the passes, which keeps one
    # slow burst of the machine from moving the whole figure
    per_call = [median([op.adjusted for op in ops]) for ops in zip(*passes)]
    raw_wall = sum(median([op.seconds for op in ops]) for ops in zip(*passes))
    counted = [(ops[0].cands, sec) for ops, sec in zip(zip(*passes), per_call)
               if ops[0].cands is not None]
    procs = [op.adjusted * 1e3 for op in rec.ops if op.proc]
    def slowness(proc):
        xs = [op.slowness for op in rec.ops if op.proc == proc]
        return f"{median(xs):.3g}" if xs else "none"

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_call),
        "cands_per_s": sum(c for c, _ in counted) / sum(s for _, s in counted),
        "proc_ms_p50": median(procs),
        "proc_ms_p90": p90(procs),
        "peak_rss_mb": max(self_kb, child_kb) / 1024,
    }
    notes = [f"passes {len(passes)} of {len(per_call)} calls, "
             f"measured for {time.perf_counter() - start:.1f} s",
             f"host slowness median {slowness(False)} on calls (calibrate() over "
             f"{mixes.CAL_NOMINAL_S * 1e3:g} ms), {slowness(True)} on processes "
             f"(python -c pass over {mixes.BARE_NOMINAL_S * 1e3:g} ms)",
             f"unadjusted wall_s {raw_wall:.6g} s, setup_s {setup_raw:.6g} s",
             f"processes {len(procs)} "
             f"(beyond p90: {sum(p > metrics['proc_ms_p90'] for p in procs)})",
             f"counted calls per pass {len(counted)}",
             # the children are the set-up interpreters, the CLI processes
             # and any pool workers; Linux counts the spawning process's RSS
             # into each child's peak, so children is never below self
             f"peak_rss self {self_kb / 1024:.6g} MB, children {child_kb / 1024:.6g} MB; "
             f"peak_rss_mb is the {'self' if self_kb >= child_kb else 'children'} figure",
             f"failed_frac {rec.failed / rec.attempted:.6g} ratio "
             f"({rec.failed}/{rec.attempted} operations)"]
    return rec, metrics, notes, {}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced(workload, seed, seconds):
    import mixes
    from spans import Tracer

    tracer = Tracer(f"{workload}:{seed}:{os.getpid()}:{time.time_ns()}", enabled=True)
    # calibrated like the untraced run, so that figures taken from calls
    # minutes apart, the computed ratios above all, share one host speed
    rec = mixes.Recorder(tracer, calibrated=True)
    inputs = {w: mixes.make_inputs(w, seed) for w in WORKLOADS}

    def traced_pass(w, index, on=True):
        tracer.enabled = on
        with tracer.span("bench", w, "traced" if on else "untraced"):
            ops = mixes.run_pass(w, rec, inputs[w], index)
        tracer.enabled = True
        return sum(op.adjusted for op in ops)

    # the workload itself, untraced and traced passes alternating
    walls = {False: [], True: []}
    index = 0
    start = time.perf_counter()
    while (index < 2 or time.perf_counter() - start < seconds):
        on = index % 2 == 1
        walls[on].append(traced_pass(workload, index, on))
        index += 1
    own_roots = {s["id"] for s in tracer.spans
                 if s["parent"] is None and s["name"] == workload}

    # one traced pass of every other mix, then the probes, so that every
    # layer's metrics come from full-size calls whatever the workload; the
    # scans run as back-to-back pairs at 1 and 2 workers instead of as mixes
    for w in WORKLOADS:
        if w != workload and not w.startswith("scan-"):
            traced_pass(w, 0)
    with tracer.span("bench", "probe", "scan-pairs"):
        mixes.scan_pair_probe(rec)
    with tracer.span("bench", "probe", "kernel"):
        mixes.kernel_probe(rec, inputs["bigset-arith"])
    with tracer.span("bench", "probe", "replay"):
        us = mixes.replay(rec, mixes.replay_samples(seed))
    with tracer.span("bench", "probe", "pool-overhead"):
        mixes.pool_overhead_probe(rec)
    with tracer.span("bench", "probe", "cli-bare"):
        mixes.cli_bare_probe(rec)

    metrics = layer_metrics(tracer, rec, inputs, us)
    metrics["trace.untraced_wall_s"] = median(walls[False])
    metrics["trace.traced_wall_s"] = median(walls[True])
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]

    per_pass = len(walls[True])
    self_s = {k: v / per_pass for k, v in tracer.self_times(own_roots).items()}
    notes = [f"self_s {layer} {v:.6g} s (per traced pass of {workload})"
             for layer, v in sorted(self_s.items())]
    # the measured difference above is mostly machine noise at a pass or
    # two; the tracer's own cost bounds what tracing can add
    spans_per_pass = sum(1 for s in tracer.spans
                         if s["id"] in own_roots or s["parent"] in own_roots) / per_pass
    cost = tracer.span_cost()
    notes.append(f"trace span cost {cost * 1e6:.3g} us x {spans_per_pass:.0f} spans "
                 f"per traced pass = {cost * spans_per_pass:.3g} s computed overhead")
    notes += [f"replay_us {k} {v:.6g} us" for k, v in us.items()
              if k not in KERNEL_CLASSES]
    notes.append(f"untraced passes {len(walls[False])}, traced passes {per_pass}")
    n1 = len(tracer.durations("search", "largest", "workers=1"))
    n2 = len(tracer.durations("search.pool", "largest", "workers=2"))
    notes.append(f"search medians over {n1} calls per engine at 1 worker and {n2} at 2")
    speed = metrics["search.pool.largest.speedup"]
    notes.append(f"known defect: largest at 2 workers gains {speed:.3g}x in this run"
                 + (" (under 1.2x)" if speed < 1.2 else "")
                 + "; kept in scan-pool2 on purpose")
    notes.append("known defect: `search partition3 --exhaustive` reports "
                 '"examined": 0; timed, left out of cands_per_s')
    notes.append(f"failed_frac {rec.failed / rec.attempted:.6g} ratio "
                 f"({rec.failed}/{rec.attempted} operations)")
    extra = {"self_s": self_s, "own_roots": sorted(own_roots)}
    return rec, metrics, notes, extra


def layer_metrics(tracer, rec, inputs, us):
    def med(layer, name, arg=None, within=None):
        return median(tracer.durations(layer, name, arg, within))

    def op(layer, name, arg):
        return next(o for o in rec.ops
                    if (o.layer, o.name, o.arg) == (layer, name, arg) and o.ok)

    big = inputs["bigset-arith"]
    m, r = big["ms"][-1], big["rs"][-1]
    k = big["pairs"][-1][0]
    out = {f"core.sum_diff_cards_us.{c}": us[c] for c in KERNEL_CLASSES}
    for name in ("sumset_bits", "diff_bits", "elements_of", "classify"):
        out[f"core.{name}_s"] = med("core", name, f"m={m}")
    out["core.intset_init_s"] = med("core", "IntSet", f"k={k}")
    out["core.intset_ops_s"] = sum(med("core", f"IntSet{o}", f"k={k}") for o in "|&-^")
    out["constructions.k_set_s"] = med("constructions", "k_set", f"m={m}")
    out["constructions.partition3_feasible_s"] = med(
        "constructions", "partition3_feasible", f"r={r}")
    out["lemmas.new_sums_on_extend_s"] = med("lemmas", "new_sums_on_extend", f"m={m}")

    serial, kernel = {}, 0.0
    for e in ENGINES:
        serial[e] = med("search", e, "workers=1")
        out[f"search.{e}.wall_s"] = serial[e]
        if e in COUNTED:
            found = op("search", e, "workers=1")
            out[f"search.{e}.cands_per_s"] = found.cands / serial[e]
            out[f"search.{e}.examined"] = found.cands
            kernel += found.cands * us[e] * 1e-6
            if e in ("largest", "minsize"):
                out[f"search.{e}.hits"] = found.hits
    # computed: replayed kernel time over scan time, counted engines only
    out["search.kernel_share"] = kernel / sum(serial[e] for e in COUNTED)
    for e in ENGINES:
        pooled = med("search.pool", e, "workers=2")
        out[f"search.pool.{e}.wall_s"] = pooled
        out[f"search.pool.{e}.speedup"] = serial[e] / pooled
    out["search.pool.overhead_s"] = (med("search.pool", "largest", "n=14")
                                     - med("search", "largest", "n=14"))

    out["cli.python_start_ms"] = med("cli", "python_start") * 1e3
    out["cli.import_ms"] = med("cli", "import") * 1e3
    cli_roots = {s["id"] for s in tracer.spans
                 if s["parent"] is None and s["name"] == "cli-procs"}
    for g in CLI_GROUPS:
        out[f"cli.{g}.proc_ms"] = med("cli", g, within=cli_roots) * 1e3
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "mstd" / "__init__.py").is_file():
        print(f"error: no mstd package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    import mstd
    if Path(mstd.__file__).resolve().parent != SRC / "mstd":
        print(f"error: imported mstd from {mstd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    run = traced if args.trace else untraced
    rec, metrics, notes, extra = run(args.workload, args.seed, args.seconds)

    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are computed "
              "but not declared in BENCHMARK.json, or declared but not computed",
              file=sys.stderr)
        return 1
    for key, value in meta.items():
        print(f"meta {key} {value}")
    for note in notes:
        print(note)
    for op in [op for op in rec.ops if not op.ok][:10]:
        print(f"FAILED {op.layer} {op.name} {op.arg[:120]}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {UNITS[name]}")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        rec.tracer.write(path, meta, {"metrics": metrics, **extra})
        print(f"spans {len(rec.tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
