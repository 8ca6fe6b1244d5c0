"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/report.py --seeds 1-10                 # spread check, all workloads
    python3 bench/report.py --seeds 1 --traced           # every metric, once each
    python3 bench/report.py --seeds 1-10 --traced --baseline bench/BASELINE.json

Each run is a separate `python3 bench/run.py` process, exactly as the
benchmark's command line is documented in BENCHMARK.json. For every
end-to-end metric the summary gives the median over seeds and the spread
(third minus first quartile, as a share of the median) beside the
metric's bound; a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench  # the script's own directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    took = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--seconds", type=float, default=bench.SPEC["run_seconds"])
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per workload (first seed)")
    ap.add_argument("--baseline", type=Path,
                    help="write the medians and spreads to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench.SPEC["end_to_end"]}
    units = bench.UNITS
    summary = {}
    for w in args.workloads.split(","):
        runs = [one_run(w, s, args.seconds, 0) for s in args.seeds]
        entry = {"seeds": args.seeds, "run_seconds": [round(t, 1) for _, t in runs],
                 "failed": sum(r["failed"] for r, _ in runs),
                 "attempted": sum(r["attempted"] for r, _ in runs), "end_to_end": {}}
        print(f"== {w}: {len(runs)} untraced runs, "
              f"{entry['failed']}/{entry['attempted']} failed operations, "
              f"run seconds {entry['run_seconds']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med = statistics.median(values)
            sp = spread(values) if len(values) > 1 else 0.0
            flag = "" if name == "setup_s" or sp < bounds[name] / 3 else "  <-- spread"
            entry["end_to_end"][name] = {"median": med, "spread": sp, "values": values}
            print(f"  {name:14s} {med:12.6g} {units[name]:5s} spread {sp:7.2%} "
                  f"bound {bounds[name]:.0%}{flag}")
        if args.traced:
            result, took = one_run(w, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
            print(f"  traced run ({took:.0f} s, {result['failed']}/"
                  f"{result['attempted']} failed):")
            for name, value in entry["per_layer"].items():
                print(f"    {name:40s} {value:12.6g} {units[name]}")
        summary[w] = entry

    if args.baseline:
        doc = {"note": "first baseline medians; the hardware is as stated in meta",
               "meta": bench.metadata("all", args.seeds, args.seconds, None),
               "workloads": summary}
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
