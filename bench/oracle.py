"""Expected outputs for the benchmark's correctness gates.

Nothing here imports mstd. Sums and differences come from a minimal
shift-OR written here, or from closed forms where the family has one
(k_set); the scan results are closed-form counts plus witnesses frozen
from the verified acceptance claims; the CLI expectations follow the
output formats in mstd.cli byte for byte.
"""

from __future__ import annotations

import json
from math import comb

# ---------------------------------------------------------------------------
# arithmetic


def shift_or(elems):
    """(bitmask of A+A, bitmask of the magnitudes of A-A)."""
    bits = bits_of(elems)
    s = d = 0
    for e in elems:
        s |= bits << e
        d |= bits >> e
    return s, d


def bits_of(elems):
    bits = 0
    for e in elems:
        bits |= 1 << e
    return bits


def bits_to_list(bits):
    text = bin(bits)[:1:-1]
    return [i for i, ch in enumerate(text) if ch == "1"]


def k_set_elements(m):
    return [0, 1, 2, 4, *range(7, m + 1), m + 4, m + 6, m + 7]


def nathanson_elements(k):
    return sorted({0, 2, 4, *range(3, 4 * k, 4), 4 * k, 4 * k + 2})


def k_set_sums(m):
    """K+K = {0..2m+14} minus 2m+9: no two elements of K add up to it."""
    return [x for x in range(2 * m + 15) if x != 2 * m + 9]


def k_set_mags(m):
    """Magnitudes of K-K = {0..m+7} minus m+1, so |K-K| = 2m+13."""
    return [x for x in range(m + 8) if x != m + 1]


def k_set_new_sums(m, x):
    """Sums gained when x (not in K) joins K = k_set(m), against the closed-form K+K."""
    old = set(k_set_sums(m))
    grown = [x, *k_set_elements(m)]
    return len({x + b for b in grown} - old)


def kind_and_excess(sum_card, diff_card):
    if sum_card > diff_card:
        kind = "sum-dominant"
    elif sum_card < diff_card:
        kind = "difference-dominant"
    else:
        kind = "balanced"
    return kind, sum_card - diff_card


def gaps(elems):
    return [b - a for a, b in zip(elems, elems[1:])]


def ms1_applies(elems):
    return all(g <= 2 for g in gaps(elems))


def ms2_applies(elems, m):
    gs = gaps(elems)
    if any(g not in (1, m) for g in gs):
        return False
    runs, cur = [], 0
    for g in gs:
        if g == 1:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return not runs or (runs[0] >= m - 1 and runs[-1] >= m - 1)


def new_sums(elems, x):
    """|B+B| - |A+A| for B = A u {x}; the new sums are x + B minus A+A."""
    old, _ = shift_or(elems)
    grown = {x, *elems}
    return sum(1 for s in {x + b for b in grown} if not (old >> s) & 1)


# ---------------------------------------------------------------------------
# exhaustive scans: closed-form counts and frozen witnesses


def ap_count(span, diff):
    """Progressions with this difference inside {0..span}, singletons included."""
    out, length = 0, 1
    while (length - 1) * diff <= span:
        out += span - (length - 1) * diff + 1
        length += 1
    return out


def aps_within(span, diff):
    """(start, length) of each progression counted by ap_count."""
    return [(start, length)
            for length in range(1, span // diff + 2)
            for start in range(span - (length - 1) * diff + 1)]


def largest_examined(n, hit_level):
    return sum(comb(n - 2, d) for d in range(hit_level + 1))


def minsize_examined(max_diameter):
    return sum(comb(dia - 1, j)
               for dia in range(1, max_diameter + 1)
               for j in range(min(6, dia - 1) + 1))


def appairs_examined(span, max_diff):
    return sum(ap_count(span, d) ** 2 for d in range(1, max_diff + 1))


def twoap_examined(span, max_diff):
    return sum(ap_count(span, d) for d in range(1, max_diff + 1)) ** 2


# largest_subset_scan(25) finds 4 witnesses at N=18; the least one is pinned
LARGEST_25_LEAST = (0, 1, 2, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 21, 23, 24)
MINSIZE_22_WITNESSES = [
    (0, 2, 3, 4, 7, 11, 12, 14),
    (0, 2, 3, 7, 10, 11, 12, 14),
]

SCAN_EXPECT = {
    # engine: (examined, hits, least witness or None)
    "largest": (largest_examined(25, 7), 4, LARGEST_25_LEAST),
    "minsize": (minsize_examined(22), 2, MINSIZE_22_WITNESSES[0]),
    "appairs": (appairs_examined(34, 4), 0, None),
    "twoap": (twoap_examined(26, 5), 0, None),
}


def check_scan(engine, outcome):
    """outcome: (examined, witnesses as element tuples) or a partition verdict."""
    if engine == "partition3":
        status, witness = outcome
        return status == "infeasible" and witness is None
    examined, witnesses = outcome
    want_examined, want_hits, least = SCAN_EXPECT[engine]
    if engine == "minsize":
        return examined == want_examined and witnesses == MINSIZE_22_WITNESSES
    return (examined == want_examined and len(witnesses) == want_hits
            and (not witnesses or witnesses[0] == least))


# ---------------------------------------------------------------------------
# CLI output, formatted as mstd.cli prints it


def fmt_literal(elems):
    return "{" + ", ".join(map(str, elems)) + "}"


def fmt_gaps(elems):
    gs = gaps(elems)
    if not gs:
        return f"({elems[0]} |)"
    return f"({elems[0]} | {', '.join(map(str, gs))})"


def fmt_set(elems, fmt):
    return fmt_gaps(elems) if fmt == "spohn" else fmt_literal(elems)


def _line(obj):
    return json.dumps(obj) + "\n"


def _verdict(applies, fmt):
    if fmt == "json":
        return _line({"applies": applies,
                      "guarantee": "not-sum-dominant" if applies else None})
    return "applies=yes guarantee=not-sum-dominant\n" if applies else "applies=no\n"


def cli_expected(cmd, fmt, args):
    """Expected stdout of `mstd <cmd> <args> --format <fmt>`.

    args holds Python values: element lists for sets, ints for numbers.
    """
    if cmd == "classify":
        s_bits, d_bits = shift_or(args[0])
        sc, dc = s_bits.bit_count(), 2 * d_bits.bit_count() - 1
        kind, excess = kind_and_excess(sc, dc)
        if fmt == "json":
            return _line({"kind": kind, "sum_card": sc, "diff_card": dc,
                          "excess": excess})
        return f"{kind} excess={excess}\n"
    if cmd in ("sumset", "diffset"):
        s_bits, d_bits = shift_or(args[0])
        if cmd == "sumset":
            out = bits_to_list(s_bits)
            return _line(out) if fmt == "json" else fmt_set(out, fmt) + "\n"
        mags = bits_to_list(d_bits)
        card = 2 * len(mags) - 1
        if fmt == "json":
            return _line({"magnitudes": mags, "cardinality": card})
        return f"{fmt_set(mags, fmt)} cardinality={card}\n"
    if cmd in ("spohn-parse", "construct-kset", "construct-nathanson"):
        if cmd == "spohn-parse":
            elems = args[0]
        elif cmd == "construct-kset":
            elems = k_set_elements(args[0])
        else:
            elems = nathanson_elements(args[0])
        return _line(elems) if fmt == "json" else fmt_set(elems, fmt) + "\n"
    if cmd == "spohn-format":
        text = fmt_gaps(args[0])
        return _line(text) if fmt == "json" else text + "\n"
    if cmd == "lemma-ms1":
        return _verdict(ms1_applies(args[0]), fmt)
    if cmd == "lemma-ms2":
        return _verdict(ms2_applies(args[0], args[1]), fmt)
    if cmd == "lemma-extend":
        n = new_sums(args[0], args[1])
        return _line(n) if fmt == "json" else f"{n}\n"
    raise ValueError(f"no expectation for {cmd}")


def _report(search, params, examined, witnesses, **extra):
    doc = {"search": search, "params": params, "examined": examined,
           "witnesses": witnesses, "elapsed_s": 0.0}
    doc.update(extra)
    return _line(doc)


def _partition3_145_parts():
    # the default split of {1..145} at m = 21; see mstd.constructions
    m = 21
    a1 = [1, 2, 3, 4, 8, 9, 11, 13, 14, 15, 20, 24, *range(25, 62, 2), 62,
          71, 72, 63 + m, *range(64 + m, 101 + m, 2), 101 + m,
          *(x + m + 84 for x in (21, 26, 27, 28, 31, 33, 37, 38, 39, 40))]
    s = [66, 68, 69, 70, 73, 77, 78, 80]
    a2 = sorted(set(range(1, 146)) - set(a1) - set(s))
    return sorted(a1), a2, s


# `mstd search ... --format json` for the small scans of the CLI mixes.
# Counts are closed forms; witnesses are the verified minima.
SEARCH_JSON = {
    ("largest", "16"): _report(
        "largest", {"n": 16, "max_discard": 8}, largest_examined(16, 7),
        [[0, 1, 2, 4, 7, 8, 12, 14, 15], [0, 1, 3, 7, 8, 11, 13, 14, 15]],
        n_value=9),
    ("minsize", "12"): _report(
        "minsize", {"max_diameter": 12}, minsize_examined(12), []),
    ("appairs", "15", "2"): _report(
        "appairs", {"max_span": 15, "max_diff": 2}, appairs_examined(15, 2), []),
    ("twoap", "12", "2"): _report(
        "twoap", {"max_span": 12, "max_diff": 2}, twoap_examined(12, 2), []),
    ("partition3", "145"): _report(
        "partition3", {"r": 145}, 0, [list(p) for p in _partition3_145_parts()],
        status="feasible", reason=None),
}


def examined_in(stdout):
    """The examined count of a JSON search report, 0 for other output."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 0
    return doc.get("examined", 0) if isinstance(doc, dict) else 0


def partition_ok(parts, r):
    """Three disjoint sum-dominant parts covering {1..r}."""
    seen = set()
    for p in parts:
        if seen & set(p):
            return False
        seen |= set(p)
        s_bits, d_bits = shift_or(p)
        if s_bits.bit_count() <= 2 * d_bits.bit_count() - 1:
            return False
    return seen == set(range(1, r + 1))


def sample_largest(rng, n, level=None):
    """A uniform candidate of the largest-subset scan of {0..n-1}.

    With level=None the discard level is drawn with the weight of its
    candidate count over the levels the scan of n=25 visits (0..7).
    """
    if level is None:
        levels = range(8)
        level = rng.choices(levels, [comb(n - 2, d) for d in levels])[0]
    mid = sorted(rng.sample(range(1, n - 1), n - 2 - level))
    return (0, *mid, n - 1)


def sample_minsize(rng, max_diameter, size=None):
    """A uniform candidate of the minimum-size scan, optionally of one size."""
    cells = [(dia, j) for dia in range(1, max_diameter + 1)
             for j in range(min(6, dia - 1) + 1)
             if size is None or j == size - 2]
    dia, j = rng.choices(cells, [comb(d - 1, k) for d, k in cells])[0]
    return (0, *sorted(rng.sample(range(1, dia), j)), dia)


def pair_rows(span, diffs):
    rows = []
    for d in diffs:
        for start, length in aps_within(span, d):
            bits = 0
            for i in range(length):
                bits |= 1 << (start + i * d)
            rows.append(bits)
    return rows

