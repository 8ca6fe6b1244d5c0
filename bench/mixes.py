"""The four workload mixes, their seeded inputs, and the gates on every result.

Each mix is a closed loop with one caller: a call starts only after the
previous one returned and its result was checked. Only the call is
timed; the gate runs after the clock stops. The library receives
nothing but the generated inputs.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import mstd
import oracle

ROOT = Path(__file__).resolve().parents[1]
CLI_ENV = {k: v for k, v in os.environ.items() if k != "MSTD_THREADS"}
CLI_ENV["PYTHONPATH"] = str(ROOT / "src")


# The host's speed drifts by up to 1.5x over minutes (other tenants share
# its cores). A fixed reference, timed before and after every operation,
# measures that drift, and the gated timings divide it out: they are
# seconds at the host speed where the reference takes its nominal time.
# Calls into mstd use a stretch of interpreter and big-integer work.
# Processes use a bare interpreter process, because process start-up
# (exec, page faults, imports) drifts apart from CPU-bound work.
CAL_NOMINAL_S = 0.018
BARE_NOMINAL_S = 0.050


def calibrate():
    """Seconds for a fixed mix of bytecode and big-integer shift-OR work."""
    t0 = perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    ones, acc = (1 << 200_000) - 1, 0
    for e in range(0, 2000, 2):
        acc |= ones << e
    return perf_counter() - t0


def bare_start():
    """Seconds for one `python -c pass` process; it imports no mstd."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=CLI_ENV, cwd=ROOT,
                   capture_output=True, timeout=60, check=True)
    return perf_counter() - t0


# the reference of each kind of operation, and its nominal seconds
REFERENCES = {"cpu": (calibrate, CAL_NOMINAL_S), "process": (bare_start, BARE_NOMINAL_S)}


@dataclass
class Op:
    layer: str
    name: str
    arg: str
    seconds: float
    ok: bool
    proc: bool  # a CLI process, as opposed to an in-process call
    cands: int | None = None  # candidates classified, where the call reports it
    hits: int | None = None
    slowness: float = 1.0  # reference time around the op over its nominal time

    @property
    def adjusted(self):
        """Seconds at the nominal host speed."""
        return self.seconds / self.slowness


class Recorder:
    """Times calls into mstd, gates their results, and keeps the records.

    With calibrated=True every operation is bracketed by its reference
    (REFERENCES), so each Op carries the host's slowness at the time it
    ran. The reference after one operation is the one before the next,
    when both are of the same kind.
    """

    def __init__(self, tracer, calibrated=False):
        self.tracer = tracer
        self.calibrated = calibrated
        self._last = None  # (kind, seconds) of the latest reference
        self.ops: list[Op] = []

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not op.ok for op in self.ops)

    def _reference(self, kind):
        # a span of its own, so that a traced run's self times keep it apart
        with self.tracer.span("calibrate", kind):
            self._last = (kind, REFERENCES[kind][0]())
        return self._last[1]

    def _timed(self, layer, name, arg, fn, kind="cpu"):
        """(result or the exception raised, seconds, slowness) of one operation."""
        if self.calibrated and (self._last is None or self._last[0] != kind):
            self._reference(kind)
        t0 = perf_counter()
        with self.tracer.span(layer, name, arg) as span:
            try:
                result = fn()
            except Exception as exc:  # a raising operation is a failed one
                result = exc
        seconds = perf_counter() - t0
        slowness = 1.0
        if self.calibrated:
            before = self._last[1]
            slowness = (before + self._reference(kind)) / (2 * REFERENCES[kind][1])
            if span is not None:
                span["slowness"] = slowness
        return result, seconds, slowness

    def call(self, layer, name, arg, fn, check, count=None):
        result, seconds, slowness = self._timed(layer, name, arg, fn)
        ok = not isinstance(result, Exception) and bool(check(result))
        cands, hits = count(result) if (count and ok) else (None, None)
        self.ops.append(Op(layer, name, arg, seconds, ok, False, cands, hits, slowness))
        return result if ok else None

    def proc(self, group, argv, expected, cands=False):
        """One `python -m mstd.cli` process; ok iff exit 0 and stdout matches."""
        done, seconds, slowness = self._timed("cli", group, " ".join(argv), lambda: subprocess.run(
            [sys.executable, "-m", "mstd.cli", *argv], capture_output=True, text=True,
            env=CLI_ENV, cwd=ROOT, timeout=120), kind="process")
        ok = (not isinstance(done, Exception) and done.returncode == 0
              and done.stdout == expected)
        n = oracle.examined_in(done.stdout) if (cands and ok) else None
        self.ops.append(Op("cli", group, " ".join(argv), seconds, ok, True,
                           n or None, None, slowness))

    def bare_proc(self, name, code, reps, kind):
        """Interpreter processes that only run `code`: the part of a CLI call that is not ours."""
        for _ in range(reps):
            done, seconds, slowness = self._timed("cli", name, "", lambda: subprocess.run(
                [sys.executable, "-c", code], env=CLI_ENV, cwd=ROOT,
                capture_output=True, timeout=60), kind)
            ok = not isinstance(done, Exception) and done.returncode == 0
            self.ops.append(Op("cli", name, code, seconds, ok, True, None, None, slowness))


# ---------------------------------------------------------------------------
# scan-serial and scan-pool2: the exhaustive engines at 1 or 2 workers

SCAN_CALLS = {
    "largest": lambda w: mstd.largest_subset_scan(25, workers=w),
    "minsize": lambda w: mstd.min_size_scan(22, workers=w),
    "appairs": lambda w: mstd.ap_pair_scan(34, 4, workers=w),
    "twoap": lambda w: mstd.two_ap_general_scan(26, 5, workers=w),
    "partition3": lambda w: mstd.partition3_feasible(25, exhaustive_small=True,
                                                     workers=w),
}


def scan_outcome(engine, result):
    if engine == "partition3":
        return result.status, result.witness
    report = result[1] if engine == "largest" else result
    return report.examined, [w.elements for w in report.witnesses]


def scan_count(engine):
    # partition3 reports no candidate count, so it stays out of cands_per_s
    if engine == "partition3":
        return None

    def count(result):
        examined, witnesses = scan_outcome(engine, result)
        return examined, len(witnesses)
    return count


def scan_layer(workers):
    return "search" if workers == 1 else "search.pool"


def scan_call(rec, engine, workers):
    rec.call(scan_layer(workers), engine, f"workers={workers}",
             lambda: SCAN_CALLS[engine](workers),
             lambda r: oracle.check_scan(engine, scan_outcome(engine, r)),
             scan_count(engine))


def scan_pass(rec, inputs):
    for engine in SCAN_CALLS:
        scan_call(rec, engine, inputs["workers"])


def scan_pair_probe(rec, rounds=2):
    """Each engine at 1 and then at 2 workers, `rounds` times.

    The two calls of a pair run back to back, so a ratio of their
    medians sees the same state of the host on both sides.
    """
    for engine in SCAN_CALLS:
        for _ in range(rounds):
            for workers in (1, 2):
                scan_call(rec, engine, workers)


def scan_cli(rec, inputs, rounds=2):
    # the small searches of the byte-identity acceptance claim, less the
    # exhaustive partition3 (the pass already runs it at r=25)
    for _ in range(rounds):
        for args, text in oracle.SEARCH_JSON.items():
            rec.proc("search", ["search", *args, "--format", "json",
                                "--threads", str(inputs["workers"])], text)


def pool_overhead_probe(rec, reps=5):
    """largest_subset_scan(14) at 1 and 2 workers: almost no work, one pool per level."""
    want = oracle.largest_examined(14, 6)
    for _ in range(reps):
        for workers in (1, 2):
            rec.call(scan_layer(workers), "largest", "n=14",
                     lambda: mstd.largest_subset_scan(14, workers=workers),
                     lambda r: r[0].n_value is None and r[1].examined == want)


# ---------------------------------------------------------------------------
# bigset-arith: large sets through the public API

def bigset_inputs(seed):
    rng = random.Random(seed)
    ms = [base + rng.randrange(100) for base in (20000, 50000, 100000)]
    big = ms[-1]
    # a gap inside K, or a point past its end
    ext = rng.choice([3, 5, 6, big + 1, big + 2, big + 3, big + 5,
                      big + 8 + rng.randrange(50)])
    pairs = [(k, rng.sample(range(4 * k), k), rng.sample(range(4 * k), k))
             for k in (10000, 30000)]
    rs = [base + rng.randrange(50) for base in (1000, 2000, 3000)]
    cli = [bigset_cli_round(rng) for _ in range(4)]
    return {"ms": ms, "ext": ext, "pairs": pairs, "rs": rs, "cli": cli}


def bigset_cli_round(rng):
    r1 = sorted(rng.sample(range(8000), 2000))
    r2 = sorted(rng.sample(range(8000), 2000))
    x = rng.choice(sorted(set(range(8100)) - set(r2)))
    m = 20000 + rng.randrange(100)
    k = 2000 + rng.randrange(100)
    return [
        ("construct", "construct-kset", "plain", [m], ["construct", "kset", str(m)]),
        ("arith", "classify", "plain", [r1], ["classify", oracle.fmt_literal(r1)]),
        ("arith", "sumset", "json", [r1], ["sumset", oracle.fmt_literal(r1)]),
        ("arith", "diffset", "spohn", [r2], ["diffset", oracle.fmt_literal(r2)]),
        ("lemma", "lemma-extend", "plain", [r2, x],
         ["lemma", "extend", oracle.fmt_literal(r2), str(x)]),
        ("construct", "construct-nathanson", "json", [k],
         ["construct", "nathanson", str(k)]),
    ]


def bigset_pass(rec, inputs):
    ms = inputs["ms"]
    K = None
    for m in ms:
        K = rec.call("constructions", "k_set", f"m={m}", lambda: mstd.k_set(m),
                     lambda k: k.elements == tuple(oracle.k_set_elements(m)))
        if K is None:
            continue
        if m != ms[-1]:
            # the sumset/diffset unpack is quadratic; at m=1e5 it alone costs ~7 s
            rec.call("core", "sumset", f"m={m}", lambda: mstd.sumset(K),
                     lambda s: s.elements == tuple(oracle.k_set_sums(m)))
            rec.call("core", "diffset", f"m={m}", lambda: mstd.diffset(K),
                     lambda d: d[1] == 2 * m + 13
                     and d[0].elements == tuple(oracle.k_set_mags(m)))
        rec.call("core", "classify", f"m={m}", lambda: mstd.classify(K),
                 lambda c: c.kind is mstd.Kind.SUM_DOMINANT and c.excess == 1
                 and (c.sum_card, c.diff_card) == (2 * m + 14, 2 * m + 13),
                 lambda c: (1, None))
    if K is not None:
        x = inputs["ext"]
        rec.call("lemmas", "new_sums_on_extend", f"m={ms[-1]}",
                 lambda: mstd.new_sums_on_extend(K, x),
                 lambda n: n == oracle.k_set_new_sums(ms[-1], x))
    for k, xs, ys in inputs["pairs"]:
        sa, sb = set(xs), set(ys)
        a = rec.call("core", "IntSet", f"k={k}", lambda: mstd.IntSet(xs),
                     lambda s: s.elements == tuple(sorted(sa)))
        b = rec.call("core", "IntSet", f"k={k}", lambda: mstd.IntSet(ys),
                     lambda s: s.elements == tuple(sorted(sb)))
        if a is None or b is None:
            continue
        for op, fn, want in (("|", a.__or__, sa | sb), ("&", a.__and__, sa & sb),
                             ("-", a.__sub__, sa - sb), ("^", a.__xor__, sa ^ sb)):
            rec.call("core", f"IntSet{op}", f"k={k}", lambda: fn(b),
                     lambda s: s.elements == tuple(sorted(want)))
        if k == inputs["pairs"][0][0]:
            s_bits, d_bits = oracle.shift_or(xs)
            rec.call("core", "classify", f"k={k}", lambda: mstd.classify(a),
                     lambda c: (c.sum_card, c.diff_card)
                     == (s_bits.bit_count(), 2 * d_bits.bit_count() - 1),
                     lambda c: (1, None))
    for r in inputs["rs"]:
        rec.call("constructions", "partition3_feasible", f"r={r}",
                 lambda: mstd.partition3_feasible(r),
                 lambda f: f.status == "feasible"
                 and oracle.partition_ok([p.elements for p in f.witness], r))


def bigset_cli(rec, inputs, index, rounds=2):
    for i in range(rounds):
        for group, cmd, fmt, args, argv in inputs["cli"][(index + i) % len(inputs["cli"])]:
            rec.proc(group, [*argv, "--format", fmt],
                     oracle.cli_expected(cmd, fmt, args))


def kernel_probe(rec, inputs):
    """The shift-OR kernel and its unpacking, called directly at the largest m."""
    m = inputs["ms"][-1]
    bits = oracle.bits_of(oracle.k_set_elements(m))
    sums = oracle.bits_of(oracle.k_set_sums(m))
    mags = oracle.bits_of(oracle.k_set_mags(m))
    rec.call("core", "sumset_bits", f"m={m}", lambda: mstd.sumset_bits(bits),
             lambda s: s == sums)
    rec.call("core", "diff_bits", f"m={m}", lambda: mstd.diff_bits(bits),
             lambda d: d == mags)
    rec.call("core", "elements_of", f"m={m}", lambda: mstd.elements_of(bits),
             lambda e: e == tuple(oracle.k_set_elements(m)))


# ---------------------------------------------------------------------------
# cli-procs: one `python -m mstd.cli` process per command

MSTD_EXAMPLE = (0, 2, 3, 4, 7, 11, 12, 14)


def _random_set(rng, size, top):
    return sorted(rng.sample(range(top), size))


def _walk(rng, steps, size):
    out = [rng.randrange(10)]
    for _ in range(size - 1):
        out.append(out[-1] + rng.choice(steps))
    return out


def cli_round(rng):
    """One pass of the CLI mix: (group, oracle command, format, values, argv)."""
    lit = oracle.fmt_literal
    scale, shift = rng.randrange(1, 4), rng.randrange(20)
    mstd_set = [scale * e + shift for e in MSTD_EXAMPLE]
    s1 = _random_set(rng, rng.randrange(6, 13), 40)
    s2 = _random_set(rng, rng.randrange(6, 13), 40)
    s3 = _random_set(rng, rng.randrange(4, 10), 60)
    s4 = _walk(rng, (1, 1, 2, 2, 3) if rng.random() < 0.3 else (1, 2), 10)
    gap = rng.randrange(2, 5)
    steps = ([1] * rng.randrange(gap + 1) + [gap] + [1] * rng.randrange(3)
             + [gap] + [1] * rng.randrange(gap + 1))
    s5 = [rng.randrange(10)]
    for step in steps:
        s5.append(s5[-1] + step)
    s6 = _random_set(rng, 8, 30)
    x = rng.choice([v for v in range(35) if v not in s6])
    m, k = rng.randrange(9, 60), rng.randrange(5, 30)
    rows = [
        ("arith", "classify", "plain", [mstd_set], ["classify", lit(mstd_set)]),
        ("arith", "classify", "json", [s1], ["classify", lit(s1)]),
        ("arith", "sumset", "plain", [s1], ["sumset", lit(s1)]),
        ("arith", "diffset", "spohn", [s2], ["diffset", lit(s2)]),
        ("notation", "spohn-parse", "plain", [s3],
         ["spohn", "parse", oracle.fmt_gaps(s3)]),
        ("notation", "spohn-format", "plain", [s2], ["spohn", "format", lit(s2)]),
        ("lemma", "lemma-ms1", "plain", [s4], ["lemma", "ms1", lit(s4)]),
        ("lemma", "lemma-ms2", "json", [s5, gap],
         ["lemma", "ms2", lit(s5), str(gap)]),
        ("lemma", "lemma-extend", "plain", [s6, x],
         ["lemma", "extend", lit(s6), str(x)]),
        ("construct", "construct-kset", "spohn", [m], ["construct", "kset", str(m)]),
        ("construct", "construct-nathanson", "json", [k],
         ["construct", "nathanson", str(k)]),
    ]
    for args in (("largest", "16"), ("minsize", "12"), ("appairs", "15", "2"),
                 ("twoap", "12", "2"), ("partition3", "145")):
        rows.append(("search", args, "json", None, ["search", *args]))
    return rows


def cli_inputs(seed):
    rng = random.Random(seed)
    return {"rounds": [cli_round(rng) for _ in range(8)]}


def cli_pass(rec, inputs, index=0):
    for group, cmd, fmt, args, argv in inputs["rounds"][index % len(inputs["rounds"])]:
        if group == "search":
            expected = oracle.SEARCH_JSON[cmd]
        else:
            expected = oracle.cli_expected(cmd, fmt, args)
        rec.proc(group, [*argv, "--format", fmt], expected,
                 cands=(group == "search" and cmd[0] != "partition3"))


def cli_bare_probe(rec, reps=10):
    # `python -c pass` is the process reference itself, so it takes the CPU one
    rec.bare_proc("python_start", "pass", reps, "cpu")
    rec.bare_proc("import", "import mstd.cli", reps, "process")


# ---------------------------------------------------------------------------
# kernel replay: seeded samples of each engine's real candidates

REPLAY_N = 4000
REPLAY_LOOPS = 5  # times through the batch per timed call, ~50 ms per call


def replay_samples(seed):
    """(bits, elements) batches; elements is None where the engine passes none."""
    rng = random.Random(seed)

    def packed(elems_list):
        return [(oracle.bits_of(e), e) for e in elems_list]

    def pairs(span, groups):
        rows = {d: oracle.pair_rows(span, d) for d in groups}
        keys = list(rows)
        weights = [len(rows[d]) ** 2 for d in keys]
        out = []
        for _ in range(REPLAY_N):
            r = rows[rng.choices(keys, weights)[0]]
            out.append((rng.choice(r) | rng.choice(r), None))
        return out

    n = REPLAY_N
    return {
        # fixed cardinalities
        "n8": packed([oracle.sample_minsize(rng, 22, size=8) for _ in range(n)]),
        "n19": packed([oracle.sample_largest(rng, 25, level=6) for _ in range(n)]),
        "n64": packed([oracle.sample_largest(rng, 71, level=7) for _ in range(n)]),
        # each engine's candidate mix, weighted as the scan visits it
        "largest": packed([oracle.sample_largest(rng, 25) for _ in range(n)]),
        "minsize": packed([oracle.sample_minsize(rng, 22) for _ in range(n)]),
        "appairs": pairs(34, [(d,) for d in range(1, 5)]),
        "twoap": pairs(26, [tuple(range(1, 6))]),
    }


def replay(rec, samples, reps=5):
    """Median microseconds per sum_diff_cards call for each sample batch.

    The times are at nominal host speed when the recorder is calibrated.
    """
    sdc = mstd.sum_diff_cards
    out = {}
    for key, batch in samples.items():
        want = []
        for bits, _ in batch[:50]:
            s, d = oracle.shift_or(oracle.bits_to_list(bits))
            want.append((s.bit_count(), 2 * d.bit_count() - 1))
        times = []
        for _ in range(reps):
            rec.call("core", "sum_diff_cards", key,
                     lambda: [sdc(bits, elems) for _ in range(REPLAY_LOOPS)
                              for bits, elems in batch],
                     lambda got: got[:50] == want)
            times.append(rec.ops[-1].adjusted / (REPLAY_LOOPS * len(batch)) * 1e6)
        out[key] = sorted(times)[len(times) // 2]
    return out


# ---------------------------------------------------------------------------
# dispatch on the workload name


def make_inputs(workload, seed):
    if workload == "scan-serial":
        return {"workers": 1}
    if workload == "scan-pool2":
        return {"workers": 2}
    if workload == "bigset-arith":
        return bigset_inputs(seed)
    if workload == "cli-procs":
        return cli_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload, rec, inputs, index):
    """One pass of the workload's mix; returns the in-pass operations."""
    start = len(rec.ops)
    if workload.startswith("scan-"):
        scan_pass(rec, inputs)
    elif workload == "bigset-arith":
        bigset_pass(rec, inputs)
    else:
        cli_pass(rec, inputs, index)
    return rec.ops[start:]


def run_side(workload, rec, inputs, index):
    """CLI processes of the workload's own kind, for its per-process latency."""
    if workload.startswith("scan-"):
        scan_cli(rec, inputs)
    elif workload == "bigset-arith":
        bigset_cli(rec, inputs, index)
