"""Exhaustive searches over bounded families of candidate sets.

Four engines, all built on the same pattern: enumerate a finite,
combinatorially counted candidate space, classify it, and report the
witnesses that satisfy the target predicate. Nothing is sampled and
nothing exits early inside an enumeration level, so `examined` always
equals the closed-form count implied by the bounds and re-runs are
exactly reproducible.

largest_subset(n):   largest sum-dominant subset of {0..n-1} containing
                     both endpoints, found by discarding d = 0, 1, 2, ...
                     middle elements; the first productive level gives
                     cardinality N = n - d.
min_size_scan(D):    every normalized candidate {0} u mid u {diam} with
                     cardinality <= 8 and diameter <= D; certifies that
                     sum-dominance needs at least 8 elements in range.
ap_pair_scan:        unions of two arithmetic progressions sharing one
                     common difference d <= max_diff inside {0..span}.
                     Scanning every d covers relative offsets in steps
                     of 1/d of the normalized period, so the interleaved
                     fractional-offset configurations appear as integer
                     pairs on the d-times-finer grid.
two_ap_general_scan: same but the two differences vary independently.
partition3_feasible: can {1..r} split into three sum-dominant parts;
                     small r is decided by counting, large r by explicit
                     construction, and a caller-enabled exhaustive search
                     settles r <= 26.

Combination scans (largest, minsize, both parts of the partition
search) share one depth-first walk over ascending elements that visits
the candidates in lexicographic order. A node holds the mask P of its
elements, P reflected about the top element K as R, the sum mask S and
the magnitude mask D, and adding x costs O(1) big-integer operations:
P |= 1<<x; R |= 1<<(K-x); S |= P<<x; D |= R>>(K-x), since R>>(K-x)
holds x-a for every a below x. A leaf is sum-dominant iff
popcount(S) > 2*popcount(D) - 1.

Pair scans union row i with rows j >= i only, as the union does not
depend on the order. `examined` stays the closed-form count (rows**2
ordered pairs per difference group), while SearchReport.classified
counts the candidates actually classified. The rows come in runs, one
per difference d and length l, whose starts 0, 1, 2, ... make each row
the previous one shifted by 1. A pair costs O(1) big-integer operations
and no unpacking, because every term of

    (A u B) + (A u B) = (A+A) u (B+B) u (A+B)
    |(A u B) - (A u B)| = |A-A| u |B-B| u |A-B|

is a progression or follows a run by shifts. The sums of AP(s, d, l)
are AP(2s, d, 2l-1) and its magnitudes AP(0, d, l), so row i's own
terms and each run's are built once. For the first row B0 of each run
at or after row i, the cross sums C = A+B0 and the signed cross
differences X = {K+a-b}, Y = {K+b-a}, offset by K = span so none is
negative, take min(|A|, |B0|) shift-ORs. B = B0 << t shifts A+B by t
and B+B by 2t, and moves a-b by -t and b-a by +t, so along the run

    S = S_A | S_B0 << 2t | C << t
    D = D_A | D_B | (X >> t | Y << t) >> K

are exactly the sum and magnitude masks of A u B, the last >> K keeping
the nonnegative differences. Only witnesses are unpacked.

Parallelism: each engine splits its candidate space into contiguous
lexicographic blocks (pair blocks of equal triangle area, since row i
costs rows - i unions) and farms them to one process pool per scan.
Blocks return (count, witness list); merging sums the counts and sorts
the witness union, both order-free, so reports are byte-identical for
any worker count. Workers receive plain tuples and rebuild their local
state, so no shared mutable anything.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, pairwise

from .constructions import default_blocks, partition3
from .core import IntSet, elements_of, sum_diff_cards
from .errors import BudgetExceededError, InvalidParameterError

MIN_SD_CARD = 8  # a sum-dominant set has at least 8 elements


@dataclass
class SearchReport:
    """Outcome of one exhaustive scan.

    witnesses hold IntSets (or IntSet triples for the partition search),
    sorted lexicographically by elements; examined is the closed-form
    candidate count; classified counts the candidates actually classified
    (fewer in the pair scans, which classify each unordered pair once)
    and stays out of as_dict; params echoes the search bounds.
    """

    search: str
    params: dict
    examined: int
    witnesses: list
    elapsed: float
    classified: int = 0

    def as_dict(self, elapsed_s: float | None = None) -> dict:
        """Schema form: {"search", "params", "examined", "witnesses", "elapsed_s"}."""
        wit = []
        for w in self.witnesses:
            if isinstance(w, IntSet):
                wit.append(list(w.elements))
            else:
                wit.append([list(part.elements) for part in w])
        return {
            "search": self.search,
            "params": dict(self.params),
            "examined": self.examined,
            "witnesses": wit,
            "elapsed_s": self.elapsed if elapsed_s is None else elapsed_s,
        }


@dataclass(frozen=True)
class LargestSubsetResult:
    n: int
    n_value: int | None
    witness: IntSet | None


@dataclass(frozen=True)
class Partition3Feasibility:
    r: int
    status: str  # "infeasible" | "feasible" | "unknown"
    reason: str | None = None
    witness: tuple[IntSet, IntSet, IntSet] | None = None
    examined: int = 0  # first parts classified by the exhaustive search


# ---------------------------------------------------------------------------
# worker plumbing


def _require(value, least, what):
    # a scan bound or worker count: an int (not a bool) of at least `least`
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{what} must be an int, not {type(value).__name__}")
    if value < least:
        raise InvalidParameterError(f"{what} must be at least {least}")


@contextmanager
def _task_runner(workers):
    # yields run(fn, tasks) for one scan: contiguous blocks, order-free
    # merge; a pool only when it can pay off, opened once and reused by
    # every later task list of the scan
    pool = None

    def run(fn, tasks):
        nonlocal pool
        if workers <= 1 or len(tasks) <= 1:
            return [fn(t) for t in tasks]
        if pool is None:
            from multiprocessing import get_context  # only a pool pays its import
            try:
                ctx = get_context("fork")
            except ValueError:
                ctx = get_context()
            pool = ctx.Pool(processes=workers)
        return pool.map(fn, tasks)

    try:
        yield run
    finally:
        if pool is not None:
            pool.terminate()


def _sum_dominant(prefix, pool, k, tail=()):
    """Bitmasks of the sum-dominant sets prefix + c + tail, c in combinations(pool, k).

    The same sets in the same order as that loop. Each of prefix, pool
    and tail ascends, and every pool element lies above the prefix and
    below the tail. This is the walk of the module docstring with K the
    top element; its last level is a flat loop, and a node that must
    take the rest of the pool takes it without branching.
    """
    top = max(chain(prefix[-1:], pool[-1:], tail[-1:]), default=0)

    def grow(p, r, s, d, xs):
        for x in xs:
            p |= 1 << x
            r |= 1 << (top - x)
            s |= p << x
            d |= r >> (top - x)
        return p, r, s, d

    tp, _, ts, td = grow(0, 0, 0, 0, tail)

    def close(p, r, s, d):  # S and D once the tail is appended
        for t in tail:
            s |= p << t
            d |= r >> (top - t)
        return s | ts, d | td

    items = [(x, 1 << x, 1 << (top - x), top - x) for x in pool]
    m = len(items)
    found = []

    def walk(i, k, p, r, s, d):
        if k == 1:
            for x, bx, rx, kx in items[i:]:
                q = p | bx
                u = r | rx
                sq, dq = close(q, u, s | q << x, d | u >> kx)
                if sq.bit_count() > 2 * dq.bit_count() - 1:
                    found.append(q | tp)
        elif k == 0 or i + k == m:  # no choice left
            p, r, s, d = grow(p, r, s, d, pool[i:i + k])
            s, d = close(p, r, s, d)
            if s.bit_count() > 2 * d.bit_count() - 1:
                found.append(p | tp)
        else:
            for j in range(i, m - k + 1):
                x, bx, rx, kx = items[j]
                q = p | bx
                u = r | rx
                walk(j + 1, k - 1, q, u, s | q << x, d | u >> kx)

    walk(0, k, *grow(0, 0, 0, 0, prefix))
    return found


def _subset_worker(task):
    # one block (prefix, pool, k, tail) of a combination scan
    prefix, pool, k, tail = task
    found = _sum_dominant(prefix, pool, k, tail)
    return math.comb(len(pool), k), [elements_of(w) for w in found]


# ---------------------------------------------------------------------------
# largest sum-dominant subset of {0..n-1}


def largest_subset_scan(n: int, max_discard: int = 8,
                        workers: int = 1) -> tuple[LargestSubsetResult, SearchReport]:
    """Level scan with full report; see largest_subset.

    Scans discard counts d = 0, 1, 2, ... over the middle {1..n-2}
    (endpoints always kept), each level exhaustively even after a hit,
    and stops after the first level containing a witness. Witnesses at
    that level are reported sorted; the lexicographically least kept
    set is the canonical one. Levels beyond n-8 discards cannot produce
    a sum-dominant set (too few elements survive), so "absent" is
    definitive once they are all scanned; if max_discard cuts the scan
    short of that, BudgetExceededError carries the partial report.
    """
    _require(n, 2, f"interval length n={n}")
    _require(max_discard, 0, "max_discard")
    _require(workers, 1, f"workers={workers}")
    t0 = time.perf_counter()
    meaningful = min(n - 2, max(0, n - MIN_SD_CARD))
    limit = min(max_discard, meaningful)

    examined = 0
    hits: list[tuple[int, ...]] = []
    hit_d = None
    with _task_runner(workers) as run:
        for d in range(limit + 1):
            kept = (n - 2) - d
            if kept:  # kept middles, one block per least element
                tasks = [((0, first), range(first + 1, n - 1), kept - 1, (n - 1,))
                         for first in range(1, n - kept)]
            else:
                tasks = [((0,), (), 0, (n - 1,))]
            level = []
            for count, found in run(_subset_worker, tasks):
                examined += count
                level.extend(found)
            hits = sorted(level)
            if hits:
                hit_d = d
                break

    elapsed = time.perf_counter() - t0
    params = {"n": n, "max_discard": max_discard}
    witnesses = [IntSet(w) for w in hits]
    report = SearchReport("largest", params, examined, witnesses, elapsed,
                          classified=examined)
    if hit_d is not None:
        result = LargestSubsetResult(n, n - hit_d, witnesses[0])
        return result, report
    if limit >= meaningful:
        return LargestSubsetResult(n, None, None), report
    raise BudgetExceededError(
        f"no witness within max_discard={max_discard}; certifying absence "
        f"for n={n} needs discard levels up to {meaningful}", report)


def largest_subset(n: int, max_discard: int = 8,
                   workers: int = 1) -> LargestSubsetResult:
    """Largest sum-dominant subset of {0..n-1} containing 0 and n-1.

    Returns n_value = that largest cardinality and the witness that is
    lexicographically least among the maximal ones, or n_value = None
    when no such subset exists (certified exhaustively).
    """
    result, _ = largest_subset_scan(n, max_discard, workers)
    return result


# ---------------------------------------------------------------------------
# minimal cardinality at bounded diameter


def min_size_scan(max_diameter: int, workers: int = 1) -> SearchReport:
    """All normalized sets of cardinality <= 8 and diameter <= max_diameter.

    Candidates contain both 0 and their diameter D (affine normal form,
    one representative per similarity class). Witnesses are every
    sum-dominant candidate found; an empty size-7 slice certifies that
    8 elements are necessary within the bound.
    """
    _require(max_diameter, 1, "max_diameter")
    _require(workers, 1, f"workers={workers}")
    t0 = time.perf_counter()
    tasks = [((0,), range(1, diameter), j, (diameter,))
             for diameter in range(1, max_diameter + 1)
             for j in range(min(MIN_SD_CARD - 2, diameter - 1) + 1)]
    examined = 0
    hits = []
    with _task_runner(workers) as run:
        for count, found in run(_subset_worker, tasks):
            examined += count
            hits.extend(found)
    witnesses = [IntSet(w) for w in sorted(hits)]
    elapsed = time.perf_counter() - t0
    return SearchReport("minsize", {"max_diameter": max_diameter},
                        examined, witnesses, elapsed, classified=examined)


# ---------------------------------------------------------------------------
# two-progression scans


def _ap_runs(span: int, diffs) -> list[tuple[int, int, int]]:
    # (diff, length, rows) for every shape of progression inside {0..span},
    # diffs in the given order, then length ascending; a run's rows are
    # its starts 0..rows-1
    return [(d, length, span - (length - 1) * d + 1)
            for d in diffs for length in range(1, span // d + 2)]


def _ap_bits(diff: int, length: int) -> int:
    # mask of {0, diff, ..., (length-1)*diff}: a repunit in base 2**diff
    return ((1 << length * diff) - 1) // ((1 << diff) - 1)


def _dominates(sc: int, dc: int) -> bool:
    # the pair worker's verdict on (|A+A|, |A-A|), under its own name so a
    # stand-in verdict can drive the witness path
    return sc > dc


def _pair_block_worker(task):
    # rows lo..hi of the first progression against every row from itself
    # on: the union is symmetric, so (j, i) would repeat (i, j). Returns the
    # ordered-pair count, the unions classified and the witnesses.
    span, diffs, lo, hi = task
    top = span  # K, the reflection point of the cross differences
    runs = []  # (first row, rows, diff, length, AP(0, d, l), AP(0, d, 2l-1))
    total = 0
    for diff, length, n in _ap_runs(span, diffs):
        runs.append((total, n, diff, length, _ap_bits(diff, length),
                     _ap_bits(diff, 2 * length - 1)))
        total += n
    found = set()
    unions = 0
    for r, (first1, n1, d1, l1, base1, sums1) in enumerate(runs):
        for s1 in range(max(lo - first1, 0), min(hi - first1, n1)):
            a = base1 << s1
            sa = sums1 << 2 * s1
            ra = base1 << top - s1 - (l1 - 1) * d1
            unions += total - first1 - s1
            for first2, n2, d2, l2, base2, sums2 in runs[r:]:
                s0 = s1 if first2 == first1 else 0  # first row j >= i
                b = base2 << s0
                sb = sums2 << 2 * s0
                dab = base1 | base2
                c = x = y = 0  # A+B0, {K+a-b} and {K+b-a}, b in B0
                if l1 <= l2:
                    rb = base2 << top - s0 - (l2 - 1) * d2
                    for e in range(s1, s1 + l1 * d1, d1):
                        c |= b << e
                        x |= rb << e
                        y |= b << top - e
                else:
                    for e in range(s0, s0 + l2 * d2, d2):
                        c |= a << e
                        x |= a << top - e
                        y |= ra << e
                for t in range(n2 - s0):  # B = B0 << t; x >> K+t | y >> K-t
                    s = sa | sb << 2 * t | c << t
                    d = dab | x >> top + t | y >> top - t
                    if _dominates(s.bit_count(), 2 * d.bit_count() - 1):
                        found.add(elements_of(a | b << t))
    return (hi - lo) * total, unions, sorted(found)


def _triangle_blocks(total, blocks):
    # contiguous row ranges of about equal work: row i costs total - i, so
    # the rows from i on hold a (total - i)**2 / total**2 share of it
    cuts = {total - math.isqrt(total * total * b // blocks) for b in range(blocks + 1)}
    return list(pairwise(sorted(cuts)))


def _scan_pairs(name, span, max_diff, diff_groups, workers):
    # diff_groups: list of diff-tuples; progressions within one group are
    # paired with each other only
    t0 = time.perf_counter()
    examined = classified = 0
    hits = set()
    with _task_runner(workers) as run:
        for diffs in diff_groups:
            total = sum(n for _, _, n in _ap_runs(span, diffs))
            tasks = [(span, diffs, lo, hi)
                     for lo, hi in _triangle_blocks(total, workers * 4)]
            for count, unions, found in run(_pair_block_worker, tasks):
                examined += count
                classified += unions
                hits.update(found)
    witnesses = [IntSet(w) for w in sorted(hits)]
    elapsed = time.perf_counter() - t0
    return SearchReport(name, {"max_span": span, "max_diff": max_diff},
                        examined, witnesses, elapsed, classified=classified)


def ap_pair_scan(max_span: int, max_diff: int, workers: int = 1) -> SearchReport:
    """Every ordered pair of same-difference progressions in {0..max_span}.

    For each common difference d <= max_diff, all (start, length) pairs
    with both progressions inside the span are unioned and classified,
    singletons included. Relative offsets that are fractional in the
    unit-difference normalization occur here as integer pairs at
    difference d, so d >= 2 sweeps the interleaved half-step (and
    finer) configurations. The expected witness list is empty: such
    unions are never sum-dominant.
    """
    _require(max_span, 1, "bounds")
    _require(max_diff, 1, "bounds")
    _require(workers, 1, f"workers={workers}")
    return _scan_pairs("appairs", max_span, max_diff,
                       [(d,) for d in range(1, max_diff + 1)], workers)


def two_ap_general_scan(max_span: int, max_diff: int, workers: int = 1) -> SearchReport:
    """Every ordered pair of progressions with independent differences.

    The superset of ap_pair_scan where the two common differences vary
    independently over 1..max_diff. A sum-dominant union here would be
    a two-progression counterexample; none is expected in range.
    """
    _require(max_span, 1, "bounds")
    _require(max_diff, 1, "bounds")
    _require(workers, 1, f"workers={workers}")
    return _scan_pairs("twoap", max_span, max_diff,
                       [tuple(range(1, max_diff + 1))], workers)


# ---------------------------------------------------------------------------
# three-part feasibility


def _split_worker(task):
    # completions of A = {1, second, ...} at this size; for sum-dominant A,
    # try every B owning the least remaining element; C is forced
    r, size_a, second = task
    whole = (1 << (r + 1)) - 2  # {1..r}
    pool_a = range(second + 1, r + 1)
    found = []
    for a in _sum_dominant((1, second), pool_a, size_a - 2):
        rest = whole ^ a
        left = elements_of(rest)
        for size_b in range(MIN_SD_CARD, len(left) - MIN_SD_CARD + 1):
            for b in _sum_dominant(left[:1], left[1:], size_b - 1):
                c = rest ^ b
                sc, dc = sum_diff_cards(c)
                if sc > dc:
                    found.append((elements_of(a), elements_of(b), elements_of(c)))
    return math.comb(len(pool_a), size_a - 2), found


SMALL_SEARCH_MAX_R = 26


def partition3_feasible(r: int, exhaustive_small: bool = False,
                        workers: int = 1) -> Partition3Feasibility:
    """Can {1..r} be partitioned into three sum-dominant sets?

    r <= 23 is infeasible by counting (each part needs 8 elements);
    every r >= 145 is feasible by the explicit construction at
    m = r - 124. In between the answer is unknown, except that setting
    exhaustive_small=True runs a complete search for r <= 26 (the flag
    is ignored above that bound). The search canonicalizes by giving
    element 1 to the first part and the least leftover element to the
    second, and returns the lexicographically least witness; its
    `examined` counts the first parts classified (0 on the other paths).
    """
    _require(r, 1, f"r={r}")
    _require(workers, 1, f"workers={workers}")
    if r < 3 * MIN_SD_CARD:
        return Partition3Feasibility(r, "infeasible", reason=f"3x8 > {r}")
    if r >= 145:
        res = partition3(default_blocks(r - 124))
        return Partition3Feasibility(r, "feasible",
                                     witness=(res.a1, res.a2, res.s))
    if exhaustive_small and r <= SMALL_SEARCH_MAX_R:
        examined = 0
        with _task_runner(workers) as run:
            for size_a in range(MIN_SD_CARD, r - 2 * MIN_SD_CARD + 1):
                tasks = [(r, size_a, second)
                         for second in range(2, r - size_a + 3)]
                level = []
                for count, found in run(_split_worker, tasks):
                    examined += count
                    level.extend(found)
                if level:
                    a, b, c = min(level)
                    return Partition3Feasibility(
                        r, "feasible", witness=(IntSet(a), IntSet(b), IntSet(c)),
                        examined=examined)
        return Partition3Feasibility(
            r, "infeasible",
            reason=f"exhaustive: no split of {{1..{r}}} into three "
                   "sum-dominant parts", examined=examined)
    return Partition3Feasibility(r, "unknown")
