"""Exhaustive searches over bounded families of candidate sets.

Four engines, all built on the same pattern: enumerate a finite,
combinatorially counted candidate space, classify every candidate with
the bitmask kernel, and report the witnesses that satisfy the target
predicate. Nothing is sampled and nothing exits early inside an
enumeration level, so `examined` always equals the closed-form count
implied by the bounds and re-runs are exactly reproducible.

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

Parallelism: each engine splits its candidate space into contiguous
lexicographic blocks and farms them to a process pool. Blocks return
(count, witness list); merging sums the counts and sorts the witness
union, both order-free, so reports are byte-identical for any worker
count. Workers receive plain tuples and rebuild their local state, so
no shared mutable anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .constructions import default_blocks, partition3
from .core import IntSet, bits_of, elements_of, sum_diff_cards
from .errors import BudgetExceededError, InvalidParameterError

MIN_SD_CARD = 8  # a sum-dominant set has at least 8 elements


@dataclass
class SearchReport:
    """Outcome of one exhaustive scan.

    witnesses hold IntSets (or IntSet triples for the partition search),
    sorted lexicographically by elements; examined counts classified
    candidates; params echoes the search bounds.
    """

    search: str
    params: dict
    examined: int
    witnesses: list
    elapsed: float

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


def _run_tasks(fn, tasks, workers):
    # contiguous blocks, order-free merge; pool only when it can pay off
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from multiprocessing import get_context  # only a pool pays its import
    try:
        ctx = get_context("fork")
    except ValueError:
        ctx = get_context()
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _is_sum_dominant(bits, elems):
    sc, dc = sum_diff_cards(bits, elems)
    return sc > dc


# ---------------------------------------------------------------------------
# largest sum-dominant subset of {0..n-1}


def _largest_worker(task):
    # all kept middles starting at `first`, in lexicographic order
    n, d, first = task
    kept = (n - 2) - d
    found = []
    count = 0
    for rest in combinations(range(first + 1, n - 1), kept - 1):
        elems = (0, first) + rest + (n - 1,)
        count += 1
        if _is_sum_dominant(bits_of(elems), elems):
            found.append(elems)
    return count, found


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
    if n < 2:
        raise InvalidParameterError(f"interval length n={n} must be at least 2")
    if max_discard < 0:
        raise InvalidParameterError("max_discard must be nonnegative")
    t0 = time.perf_counter()
    meaningful = min(n - 2, max(0, n - MIN_SD_CARD))
    limit = min(max_discard, meaningful)

    examined = 0
    hits: list[tuple[int, ...]] = []
    hit_d = None
    for d in range(limit + 1):
        kept = (n - 2) - d
        if kept == 0:
            elems = (0, n - 1)
            examined += 1
            if _is_sum_dominant(bits_of(elems), elems):
                hits = [elems]
        else:
            tasks = [(n, d, first) for first in range(1, (n - 1) - (kept - 1))]
            level = []
            for count, found in _run_tasks(_largest_worker, tasks, workers):
                examined += count
                level.extend(found)
            hits = sorted(level)
        if hits:
            hit_d = d
            break

    elapsed = time.perf_counter() - t0
    params = {"n": n, "max_discard": max_discard}
    witnesses = [IntSet(w) for w in hits]
    report = SearchReport("largest", params, examined, witnesses, elapsed)
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


def _minsize_worker(task):
    diameter, j = task
    found = []
    count = 0
    for mid in combinations(range(1, diameter), j):
        elems = (0,) + mid + (diameter,)
        count += 1
        if _is_sum_dominant(bits_of(elems), elems):
            found.append(elems)
    return count, found


def min_size_scan(max_diameter: int, workers: int = 1) -> SearchReport:
    """All normalized sets of cardinality <= 8 and diameter <= max_diameter.

    Candidates contain both 0 and their diameter D (affine normal form,
    one representative per similarity class). Witnesses are every
    sum-dominant candidate found; an empty size-7 slice certifies that
    8 elements are necessary within the bound.
    """
    if max_diameter < 1:
        raise InvalidParameterError("max_diameter must be at least 1")
    t0 = time.perf_counter()
    tasks = []
    for diameter in range(1, max_diameter + 1):
        for j in range(0, min(MIN_SD_CARD - 2, diameter - 1) + 1):
            tasks.append((diameter, j))
    examined = 0
    hits = []
    for count, found in _run_tasks(_minsize_worker, tasks, workers):
        examined += count
        hits.extend(found)
    witnesses = [IntSet(w) for w in sorted(hits)]
    elapsed = time.perf_counter() - t0
    return SearchReport("minsize", {"max_diameter": max_diameter},
                        examined, witnesses, elapsed)


# ---------------------------------------------------------------------------
# two-progression scans


def _aps_within(span: int, diff: int) -> list[tuple[int, int]]:
    # (start, length) pairs of progressions with this diff inside {0..span},
    # length ascending then start ascending
    out = []
    length = 1
    while (length - 1) * diff <= span:
        top = span - (length - 1) * diff
        for start in range(top + 1):
            out.append((start, length))
        length += 1
    return out


def _ap_mask(start: int, diff: int, length: int) -> int:
    return bits_of(range(start, start + length * diff, diff))


def _pair_block_worker(task):
    # rows lo..hi of the first progression against every second one
    span, diffs, lo, hi = task
    rows = []
    for d in diffs:
        for start, length in _aps_within(span, d):
            rows.append(_ap_mask(start, d, length))
    found = set()
    for i in range(lo, hi):
        m1 = rows[i]
        for m2 in rows:
            u = m1 | m2
            sc, dc = sum_diff_cards(u)
            if sc > dc:
                found.add(elements_of(u))
    return (hi - lo) * len(rows), sorted(found)


def _block_ranges(total, blocks):
    blocks = max(1, min(blocks, total))
    step, extra = divmod(total, blocks)
    lo = 0
    for i in range(blocks):
        hi = lo + step + (1 if i < extra else 0)
        yield lo, hi
        lo = hi


def _scan_pairs(name, span, max_diff, diff_groups, workers):
    # diff_groups: list of diff-tuples; progressions within one group are
    # paired with each other only
    t0 = time.perf_counter()
    examined = 0
    hits = set()
    for diffs in diff_groups:
        total = sum(len(_aps_within(span, d)) for d in diffs)
        tasks = [(span, diffs, lo, hi)
                 for lo, hi in _block_ranges(total, workers * 4)]
        for count, found in _run_tasks(_pair_block_worker, tasks, workers):
            examined += count
            hits.update(found)
    witnesses = [IntSet(w) for w in sorted(hits)]
    elapsed = time.perf_counter() - t0
    return SearchReport(name, {"max_span": span, "max_diff": max_diff},
                        examined, witnesses, elapsed)


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
    if max_span < 1 or max_diff < 1:
        raise InvalidParameterError("bounds must be at least 1")
    return _scan_pairs("appairs", max_span, max_diff,
                       [(d,) for d in range(1, max_diff + 1)], workers)


def two_ap_general_scan(max_span: int, max_diff: int, workers: int = 1) -> SearchReport:
    """Every ordered pair of progressions with independent differences.

    The superset of ap_pair_scan where the two common differences vary
    independently over 1..max_diff. A sum-dominant union here would be
    a two-progression counterexample; none is expected in range.
    """
    if max_span < 1 or max_diff < 1:
        raise InvalidParameterError("bounds must be at least 1")
    return _scan_pairs("twoap", max_span, max_diff,
                       [tuple(range(1, max_diff + 1))], workers)


# ---------------------------------------------------------------------------
# three-part feasibility


def _split_worker(task):
    # completions of A = {1, second, ...} at this size; for sum-dominant A,
    # try every B owning the least remaining element; C is forced
    r, size_a, second = task
    found = []
    count = 0
    for rest_a in combinations(range(second + 1, r + 1), size_a - 2):
        a = (1, second) + rest_a
        count += 1
        if not _is_sum_dominant(bits_of(a), a):
            continue
        in_a = set(a)
        rest = [x for x in range(1, r + 1) if x not in in_a]
        b0 = rest[0]
        pool = rest[1:]
        for size_b in range(MIN_SD_CARD, len(rest) - MIN_SD_CARD + 1):
            for comb in combinations(pool, size_b - 1):
                b = (b0,) + comb
                if not _is_sum_dominant(bits_of(b), b):
                    continue
                in_b = set(b)
                c = tuple(x for x in rest if x not in in_b)
                if _is_sum_dominant(bits_of(c), c):
                    found.append((a, b, c))
    return count, found


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
    if r < 1:
        raise InvalidParameterError(f"r={r} must be at least 1")
    if r < 3 * MIN_SD_CARD:
        return Partition3Feasibility(r, "infeasible", reason=f"3x8 > {r}")
    if r >= 145:
        res = partition3(default_blocks(r - 124))
        return Partition3Feasibility(r, "feasible",
                                     witness=(res.a1, res.a2, res.s))
    if exhaustive_small and r <= SMALL_SEARCH_MAX_R:
        examined = 0
        for size_a in range(MIN_SD_CARD, r - 2 * MIN_SD_CARD + 1):
            tasks = [(r, size_a, second)
                     for second in range(2, r - size_a + 3)]
            level = []
            for count, found in _run_tasks(_split_worker, tasks, workers):
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
