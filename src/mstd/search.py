"""Exhaustive searches over bounded families of candidate sets.

Five engines, all built on the same pattern: enumerate a finite,
combinatorially counted candidate space, classify it, and report the
witnesses that satisfy the target predicate. Nothing is sampled and
no enumeration level stops at its first witness. `examined` is always
the closed-form count implied by the bounds, so re-runs are exactly
reproducible; SearchReport.classified counts the candidates the engine
reached, fewer where an exact bound or a symmetry settles the rest.

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

Combination scans (largest, minsize, the three-part catalogue) walk
normalized levels: a level (K, j) holds the sets {0} u c u {K}, c a
j-subset of 1..K-1, and is one depth-first walk. The ends {0, K} enter
the root, so a node holds, for its elements, the mask P, P reflected
about the top element K as R, the sum mask S and the magnitude mask D.
Adding x costs O(1) big-integer operations in any order: P |= 1<<x;
R |= 1<<(K-x); S |= P<<x; D |= R>>(K-x) | P>>x, since R>>(K-x) holds
x-a for every a up to x and P>>x holds t-x for every t from x on. A leaf
is sum-dominant iff popcount(S) > 2*popcount(D) - 1.

The walk enters a node below the root, with k elements still to choose
and m present, only if min(|S| + k*m + k(k+1)/2, 2K+1) > 2|D| - 1. The
bound is exact: the i-th element added makes at most m+i new sums (x+a
for the m+i-1 elements a present, and 2x), S stays inside [0, 2K], and
D only grows, so a node that fails it has no sum-dominant leaf below it.

The walk keeps one set per mirror class by deciding the middle pairs
(i, K-i), i = 1, 2, ..., from the outside in, then the centre K/2.
- Mirror class: A -> K-A is affine, so it keeps |A+A| and |A-A|, and
  K-A is emitted with A. At the outermost pair that A holds one side
  of, K-i is the top bit where the masks of A and K-A differ, so the
  walk keeps the A that holds i (K-A > A as masks) and cuts any node
  whose decided pairs give R < P: until the first asymmetric pair, K-i
  is never taken without i.
- Symmetric sets are balanced: A = K-A gives A+A = K+(A-A).
- Final fringe: once pairs 1..f are decided, a sum in [0, f] u
  [2K-f, 2K] has both terms decided, so it is final and at most 2K-2f-1
  sums can still appear; a node also needs
  |S n ([0, f] u [2K-f, 2K])| + 2K-2f-1 > 2|D| - 1. The walk takes the
  open sums as (undecided elements) + (all elements), which is one
  tighter when a pair is half decided.
- Magnitude floor: a middle taken is a magnitude, its difference with
  0. A leaf below a node that still takes k of the undecided middles U
  keeps D - U and adds the k it takes, so its |D| >= |D - U| + k, and
  the node also needs |S u open| > 2(|D - U| + k) - 1.

Three-part splits of {1..r}, r <= 26: a sum-dominant set has at least
8 elements (Hegarty 2007), so every part has 8 or more and, as
3*9 > 26, the smallest has exactly 8. Every sum-dominant subset of
{1..r} is a translate of a normalized one {0, ..., D}, D <= r-1, and
the catalogue walks the levels of sizes 8 and 9..r-17 (the wide sizes,
only 9, at r = 26) for D < r. Each 8-element translate P inside {1..r}
is completed in two ways: sizes (8, 8, r-16) pair it with every later
disjoint 8-element translate Q; sizes (8, b, c) with b, c >= 9 pair it
with every disjoint wide translate B that owns the least element
outside P. The last part is the complement, which is classified alone.
Every split found is put as (the part with 1, the part with the least
element left, the rest), and the witness is the one with the smallest
first part, then the least triple: the first a walk over the first
parts {1, ...} by size would meet.

Pair scans classify one row pair per translation-and-mirror class, and
only the primitive ones. `examined` stays the closed-form count
(rows**2 ordered pairs per difference group), while
SearchReport.classified counts the unions actually classified. The rows
come in runs, one per difference d and length l, whose starts 0, 1, 2,
... make each row the previous one shifted by 1; run r has n_r rows.
For runs r1 <= r2 with first rows A0 = AP(0, d1, l1) and B0 = AP(0, d2,
l2), let o be the offset of B's start from A's.
- Translation: shifted down by its least start, a pair inside
  {0..span} stays inside it and keeps |A+A| and |A-A|. So every
  unordered row pair is a translate of A0 u B0 << o (o >= 0) or of
  A0 << -o u B0 (o < 0) for exactly one o in [-(n1-1), n2-1], o >= 0
  in a same-run pair.
- Mirror: x -> max - x is affine, so it keeps both cards, and it maps
  the pair at o to the pair of the same runs at c - o, where
  c = (l1-1)d1 - (l2-1)d2 = n2 - n1; the scan takes 2o >= c only. A
  same-run pair has c = 0, so this is o >= 0 again.
- Residue: let g = gcd(d1, d2), s = o mod g, and s, 2s != 0 mod g. Mod
  g, A+A, B+B and A+B lie in the distinct classes 2a, 2a+2s and 2a+s,
  and A-B, B-A in -s and s, apart from A-A u B-B in 0. -B is a translate
  of B, so |A-B| = |B-A| = |A+B| >= l1+l2-1, and |S| - |D| = (2l1-1) +
  (2l2-1) - |(A-A) u (B-B)| - |A-B| <= (2l1-1) + (2l2-1) - (2max(l1,
  l2)-1) - (l1+l2-1) = min(l1, l2) - max(l1, l2) <= 0.
- Dilation: x -> hx is a Freiman isomorphism (Tao & Vu, Additive
  Combinatorics, ch. 5), so it keeps both cards. At s = 0 the union is
  g times a pair of differences d1/g, d2/g with gcd 1; at s = g/2 it is
  g/2 times a pair of gcd 2 at an odd offset. Both fit the span and have
  differences in the scan's groups (appairs: d = 1 and d = 2).
So the kernel sees gcd-1 pairs and odd-offset gcd-2 pairs only, stepping
o by 2 at gcd 2; run pairs of gcd 3 or more classify nothing. A witness
u, least element 0, is emitted with its mirror and the dilates h*u of
both whose differences stay at most max_diff, each as w << v for every
v with max(w)+v <= span: every union the cuts skip, bar the residue
ones, is one of these images of a union classified.
A union costs O(1) big-integer operations and no unpacking, because
every term of

    (A u B) + (A u B) = (A+A) u (B+B) u (A+B)
    |(A u B) - (A u B)| = |A-A| u |B-B| u |A-B|

is a progression or follows a run by shifts. The sums of AP(0, d, l)
are AP(0, d, 2l-1) and its magnitudes AP(0, d, l). For each pair of
runs the cross sums C = A0+B0 are B0 smeared along A0's terms, about
log2(l1) shift-ORs. A progression is its own mirror, AP(0, d, l) =
(l-1)d - AP(0, d, l), so A0-B0 = C - (l2-1)d2 and B0-A0 = C - (l1-1)d1:
the signed cross differences X = {K+a-b} and Y = {K+b-a}, offset by
K = span so none is negative, are C << K-(l2-1)d2 and C << K-(l1-1)d1,
both shifts >= 0 as (l-1)d <= K. B = B0 << t shifts A+B by t and B+B
by 2t, and moves a-b by -t and b-a by +t, so along the run

    S = S_A | S_B0 << 2t | C << t
    D = D_A | D_B | (X >> t | Y << t) >> K

are exactly the sum and magnitude masks of A0 u B, the last >> K
keeping the nonnegative differences; A = A0 << t against B0 swaps the
roles of A and B, and of X and Y. Only witnesses are unpacked.

Parallelism: each engine splits its candidate space into blocks, one per
natural unit of work whatever the worker count (a normalized level
(K, j), or a progression shape of a pair scan and the parity of the runs
it meets), and lists them heaviest first: the levels by falling diameter,
then falling size, and the pair blocks in run-table order, where a run
meets fewer partners than the runs before it. One _scan runs each task
list and reports it. The worker count is an upper bound: a fork-join
costs about as much as a walk's 15000 counted candidates or a pair
scan's 150000, so a list runs on at most one process per such share of
its closed-form count, and the caller forks one child fewer than the
least of that, the workers and the blocks. Below two shares it runs in
the caller. A process's first fork costs two to three warm ones (the
pickle import and a cold fork), so until it has forked a share is three
times as large. The children inherit the tasks, and every process, the
caller too, takes blocks one at a time, in task order, off one pipe. A
child pickles back only its (index, result) pairs. Largest (one level at
a time), the three-part search's completions (under a millisecond for
all 20-24 placements) and any scan where os.fork is missing run in
process. A block returns (count, witness masks), and one merge sums the
counts and sorts the distinct masks by their elements, both order-free,
so reports are byte-identical for any worker count.
"""

import math
import os
import time
from typing import NamedTuple

from .core import (IntSet, _dilate, _num, _reflect, _require_int, _smear, _within_cap,
                   elements_of, sum_diff_cards)
from .errors import BudgetExceededError, InvalidParameterError

MIN_SD_CARD = 8  # a sum-dominant set has at least 8 elements


class SearchReport(NamedTuple):
    """Outcome of one exhaustive scan.

    witnesses hold IntSets, sorted lexicographically by elements;
    examined is the closed-form candidate count; classified stays out
    of as_dict and is at most examined. For largest and minsize it
    counts the walk's leaves: every middle that a node with one middle
    left can take, the mirror leaves the walk then skips included, and
    nothing below a node the bounds cut. For the pair scans it counts
    the unions classified: one per translation-and-mirror class of
    differences with gcd 1, or with gcd 2 at an odd offset, the rest
    settled by dilation and the residue bound. params echoes the search
    bounds.
    """

    search: str
    params: dict
    examined: int
    witnesses: list
    elapsed: float
    classified: int = 0

    def as_dict(self, elapsed_s: float | None = None) -> dict:
        """Schema form: {"search", "params", "examined", "witnesses", "elapsed_s"}."""
        return {
            "search": self.search,
            "params": dict(self.params),
            "examined": self.examined,
            "witnesses": [list(w.elements) for w in self.witnesses],
            "elapsed_s": self.elapsed if elapsed_s is None else elapsed_s,
        }


class LargestSubsetResult(NamedTuple):
    n: int
    n_value: int | None
    witness: IntSet | None


class Partition3Feasibility(NamedTuple):
    r: int
    status: str  # "infeasible" | "feasible" | "unknown"
    reason: str | None = None
    witness: tuple[IntSet, IntSet, IntSet] | None = None
    examined: int = 0  # see partition3_feasible; in the CLI's JSON report
    classified: int = 0  # see partition3_feasible; library only


# ---------------------------------------------------------------------------
# worker plumbing


def _require(value, least, what):
    # a scan bound or worker count: an int (not a bool) of at least `least`;
    # a "{}" in `what` shows the value, put in only when the check fails
    if type(value) is not int or value < least:
        what = what.format(_num(value))
        if _require_int(value, what) < least:
            raise InvalidParameterError(f"{what} must be at least {least}")


def _run_blocks(fn, tasks, workers):
    # [fn(task) for task in tasks], run fork-join as the module docstring
    # says; the processes take the blocks in task order
    global _forked
    procs = min(workers, len(tasks))
    if procs <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    import pickle
    import signal  # only the fork path pays these imports
    _forked = True
    feed = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    feed_r, feed_w = os.pipe()
    fds, kids = [feed_r, feed_w], []

    def work():
        while rec := os.read(feed_r, 4):  # whole 4-byte records go in: one index
            i = int.from_bytes(rec, "little")
            yield i, fn(tasks[i])

    try:
        # 512 bytes, the least PIPE_BUF, go in whole and fit any pipe; the first
        # child sends the rest, so the caller never blocks on a full pipe
        os.write(feed_w, feed[:512])
        while len(kids) < procs - 1:
            out_r, out_w = os.pipe()
            fds += out_r, out_w
            if (pid := os.fork()) == 0:  # the child: feed, work, report, exit
                try:
                    if not kids:
                        for at in range(512, len(feed), 512):
                            os.write(feed_w, feed[at:at + 512])
                    os.close(feed_w)
                    try:
                        done = list(work())
                    except Exception as exc:
                        done = exc
                    with open(out_w, "wb") as out:
                        pickle.dump(done, out)
                finally:  # no atexit handler, no flush of the caller's stdio
                    os._exit(0)
            os.close(fds.pop())  # out_w
            kids.append((pid, out_r))
        fds.remove(feed_w)
        os.close(feed_w)
        results = dict(work())
        for pid, fd in kids:
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            if not data:  # never a short report
                raise RuntimeError(f"block process {pid} exited without its results")
            if isinstance(got := pickle.loads(data), Exception):
                raise got
            results.update(got)
        return [results[i] for i in range(len(tasks))]
    finally:
        for pid, _ in kids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


# A fork-join costs 1.5-3 ms warm on 2 cores: the time a walk takes for ~15000
# of its counted candidates (120-200 ns each), or a pair scan for ~150000 of
# its own (10-20 ns each). A process's first costs 2-3 times as much
# (the pickle import and a cold fork), so until it has forked (_forked) its
# break-evens are scaled by _COLD. BENCH_scan.json holds the break-even tables
# these are read from.
_FORK_WALK = 15_000
_FORK_PAIRS = 150_000
_COLD = 3
_forked = False


def _scan(name, params, examined, fn, tasks, workers):
    # the report of one task list, its blocks run and timed: of the block
    # results (count, witness masks) the counts summed, and the distinct
    # masks as IntSets sorted by their elements. The list runs on at most one
    # process per break-even of its closed-form work, so below two it runs in
    # the caller: a walk counts C(D-1, j) per level, a pair scan `examined`,
    # and a process that has not forked yet has _COLD times the break-even
    t0 = time.perf_counter()
    if fn is _pair_block_worker:
        work, even = examined, _FORK_PAIRS
    else:
        work, even = sum(map(_block_count, tasks)), _FORK_WALK
    if not _forked:
        even *= _COLD
    results = _run_blocks(fn, tasks, workers if work >= workers * even else work // even)
    masks = sorted({w for _, ws in results for w in ws}, key=elements_of)
    return SearchReport(name, params, examined, [IntSet.from_bits(w) for w in masks],
                        time.perf_counter() - t0, classified=sum(c for c, _ in results))


def _sum_dominant(level):
    """The block of level (top, k): the sets {0} u c u {top}, c a k-subset of 1..top-1.

    Returns (leaves, masks): the leaves reached, and the bitmasks of the
    sum-dominant sets, unsorted with K-A after each A kept. This is the
    mirror walk of the module docstring with K = top: {0, K} is in the
    root, the middles are decided outside in (1, K-1, 2, K-2, ..., the
    centre), and every node below the root is cut by the mirror rule,
    the bound, the final fringe and the magnitude floor. The last middle
    is a loop inline in its parent's: it tests a leaf's sums first, and
    counts a leaf for every middle left, mirror leaves too; a cut subtree
    counts none, and a level of k < 2 middles counts its C(K-1, k) sets.
    """
    top, k = level
    if k < 2:  # {0, K} is its own mirror; {0, x, K} too at x = K/2, else |A+A| <= 6 < |A-A| = 7
        return math.comb(top - 1, k), []
    pool = sorted(range(1, top), key=lambda x: (min(x, top - x), x))
    size = k + 2
    items = [(x, 1 << x, 1 << (top - x), top - x) for x in pool]  # x, {x}, {K-x}, K-x
    m = len(items)
    # open_[j]: the sums not yet final once pool[:j] is decided, those an
    # undecided element makes with any element of {0..K}; kept[j]: {0..K} - pool[j:]
    open_, kept = [0] * (m + 1), [(1 << top + 1) - 1] * (m + 1)
    for j in reversed(range(m)):
        open_[j] = open_[j + 1] | kept[m] << pool[j]
        kept[j] = kept[j + 1] ^ 1 << pool[j]
    # the floor passes |D| only where k > |D n U|; tested also where 2k < m, it cut
    # under 1% of the leaves and slowed minsize(22) and partition3(25) ~4% (BENCH_scan.json)
    dense = 2 * k >= m
    found, leaves = [], 0

    def walk(i, k, p, r, s, d):
        # A = K-A is balanced, and r < p is the mirror of a set kept: emit r > p
        nonlocal leaves
        k -= 1
        gain = k * (size - k) + k * (k + 1) // 2  # most sums k more elements add
        for j in range(i, m - k):
            x, bx, rx, kx = items[j]
            pj, rj = p | bx, r | rx
            if rj < pj:  # the mirror rule
                continue
            sj = s | pj << x
            dj = d | rj >> kx | pj >> x
            dd = 2 * dj.bit_count() - 1
            # the bound, the final fringe (it holds the cap: |S u open| <= 2K+1) and the floor
            if sj.bit_count() + gain <= dd or (so := (sj | open_[j + 1]).bit_count()) <= dd or (
                    dense and so <= 2 * ((dj & kept[j + 1]).bit_count() + k) - 1):
                continue
            if k > 1:
                walk(j + 1, k, pj, rj, sj, dj)
                continue
            leaves += m - j - 1  # the last middle, inline: sums first
            for y, by, ry, ky in items[j + 1:]:
                pl, rl = pj | by, rj | ry
                if (sc := (sj | pl << y).bit_count()) > dd and rl > pl and (
                        sc > 2 * (dj | rl >> ky | pl >> y).bit_count() - 1):
                    found.extend((pl, rl))

    ends = 1 | 1 << top  # {0, K}: its own mirror, its sums {0, K, 2K}, its magnitudes {0, K}
    walk(0, k, ends, ends, ends | 1 << 2 * top, ends)
    return leaves, found


def _block_count(task):
    # the candidates of one level (D, j): C(D-1, j)
    return math.comb(task[0] - 1, task[1])


def _normal_tasks(diameters, mids):
    # the levels (D, j) of the normalized sets {0} u c u {D}, D in diameters
    # and c a j-subset of 1..D-1, j in mids, heaviest first: D falling, then j
    return sorted(((diameter, j) for diameter in diameters for j in mids if j < diameter),
                  reverse=True)


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
    _require(n, 2, "interval length n={}")
    _require(max_discard, 0, "max_discard")
    _require(workers, 1, "workers={}")
    _within_cap(n - 1, "the interval {0..n-1}")
    meaningful = min(n - 2, max(0, n - MIN_SD_CARD))
    limit = min(max_discard, meaningful)
    params = {"n": n, "max_discard": max_discard}

    examined = classified = elapsed = 0
    for d in range(limit + 1):  # one block per level, so it runs in process
        examined += math.comb(n - 2, d)
        report = _scan("largest", params, examined, _sum_dominant, [(n - 1, n - 2 - d)], workers)
        classified += report.classified
        elapsed += report.elapsed
        if report.witnesses:
            break
    report = report._replace(classified=classified, elapsed=elapsed)  # every level's
    if report.witnesses:
        return LargestSubsetResult(n, n - d, report.witnesses[0]), report
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
    _require(workers, 1, "workers={}")
    _within_cap(max_diameter, "max_diameter")
    tasks = _normal_tasks(range(1, max_diameter + 1), range(MIN_SD_CARD - 1))
    return _scan("minsize", {"max_diameter": max_diameter}, sum(map(_block_count, tasks)),
                 _sum_dominant, tasks, workers)


# ---------------------------------------------------------------------------
# two-progression scans


def _ap_runs(span: int, diffs) -> tuple[tuple[int, int, int, int, int], ...]:
    # (rows, diff, length, AP(0, diff, length), its sums AP(0, diff, 2*length-1))
    # for every shape of progression inside {0..span}, diffs in the given
    # order, then length ascending; a run's rows are its starts 0..rows-1
    return tuple((span - (length - 1) * d + 1, d, length, _smear(1, d, length),
                  _smear(1, d, 2 * length - 1))
                 for d in diffs for length in range(1, span // d + 2))


def _dominates(sc: int, dc: int) -> bool:
    # the pair worker's verdict on (|A+A|, |A-A|), under its own name so a
    # stand-in verdict can drive the witness path
    return sc > dc


def _images(u, diff, span, max_diff):
    # the union u, least element 0 and largest difference diff, with its
    # mirror and the dilates h*u of both whose differences stay at most
    # max_diff, each with every translate inside {0..span}
    out = []
    for w in (u, _reflect(u)):
        for h in range(1, max_diff // diff + 1):
            if (top := h * (u.bit_length() - 1)) > span:
                break
            hw = _dilate(w, h)
            out += (hw << v for v in range(span + 1 - top))
    return out


def _pair_block_worker(task):
    # run r against every other run from itself on, those at an even or an
    # odd distance, one union per translation-and-mirror class of gcd 1, or
    # of gcd 2 and an odd offset (module docstring). Returns the unions
    # classified and the witness masks with all of their _images.
    span, max_diff, runs, r, half = task
    top = span  # K, the reflection point of the cross differences
    n1, d1, l1, a, sa = runs[r]
    found = set()
    unions = 0
    for n2, d2, l2, b, sb in runs[r + half::2]:
        g = math.gcd(d1, d2)
        if g > 2:
            continue
        # the offsets o of B0's start from A0's with 2o >= n2 - n1, odd at
        # gcd 2: B0 << t for o = t >= 0, A0 << t for o = -t < 0
        ahead = range(max(0, (n2 - n1 + 1) // 2) | g - 1, n2, g)
        behind = range(1, min(n1 - 1, (n1 - n2) // 2) + 1, g)
        c = _smear(b, d1, l1)  # A0+B0; A0-B0 and B0-A0 are its translates
        x, y = c << top - (l2 - 1) * d2, c << top - (l1 - 1) * d1  # {K+a-b}, {K+b-a}
        dab = a | b
        for fixed, sf, moving, sm, x, y, shifts in ((a, sa, b, sb, x, y, ahead),
                                                    (b, sb, a, sa, y, x, behind)):
            unions += len(shifts)
            for t in shifts:  # moving << t: x >> K+t | y >> K-t
                s = sf | sm << 2 * t | c << t
                d = dab | x >> top + t | y >> top - t
                if _dominates(s.bit_count(), 2 * d.bit_count() - 1):
                    found.update(_images(fixed | moving << t, max(d1, d2), span, max_diff))
    return unions, found


def _scan_pairs(name, span, max_diff, workers):
    # progressions are paired within one difference group only: one group
    # per difference for appairs, all of 1..max_diff for twoap. Two blocks
    # per run, whatever the workers: the runs from it on at an even and at
    # an odd distance.
    _require(span, 1, "bounds")
    _require(max_diff, 1, "bounds")
    _require(workers, 1, "workers={}")
    _within_cap(span, "max_span")
    diffs = range(1, max_diff + 1)
    examined, tasks = 0, []
    for group in [(d,) for d in diffs] if name == "appairs" else [tuple(diffs)]:
        runs = _ap_runs(span, group)
        examined += sum(run[0] for run in runs) ** 2  # ordered row pairs
        tasks += [(span, max_diff, runs, r, half) for r in range(len(runs)) for half in (0, 1)]
    return _scan(name, {"max_span": span, "max_diff": max_diff}, examined,
                 _pair_block_worker, tasks, workers)


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
    return _scan_pairs("appairs", max_span, max_diff, workers)


def two_ap_general_scan(max_span: int, max_diff: int, workers: int = 1) -> SearchReport:
    """Every ordered pair of progressions with independent differences.

    The superset of ap_pair_scan where the two common differences vary
    independently over 1..max_diff. A sum-dominant union here would be
    a two-progression counterexample; none is expected in range.
    """
    return _scan_pairs("twoap", max_span, max_diff, workers)


# ---------------------------------------------------------------------------
# three-part feasibility


def _completion_worker(task):
    # the splits of {1..r} with part places[i] and, besides it, a later
    # disjoint placement (sizes 8, 8, r-16) or a disjoint wide placement
    # that owns the least element left (sizes 8, b, c with b, c >= 9); the
    # last part is the complement. Returns (complements classified, splits).
    r, places, wide, i = task
    whole = (1 << (r + 1)) - 2  # {1..r}
    p = places[i]
    least = (whole ^ p) & -(whole ^ p)  # the least element outside P
    parts = [q for q in places[i + 1:] if not p & q]
    parts += [b for b in wide if b & least and not p & b]
    splits = []
    for q in parts:
        c = whole ^ p ^ q
        sc, dc = sum_diff_cards(c)
        if sc > dc:  # sorted by least element: (A with 1, B, C)
            splits.append(tuple(sorted(map(elements_of, (p, q, c)))))
    return len(parts), splits


SMALL_SEARCH_MAX_R = 26  # the smallest part has exactly 8 elements while 3*9 > r


def partition3_feasible(r: int, exhaustive_small: bool = False,
                        workers: int = 1) -> Partition3Feasibility:
    """Can {1..r} be partitioned into three sum-dominant sets?

    r <= 23 is infeasible by counting (each part needs 8 elements);
    every r >= 145 is feasible by the explicit construction at
    m = r - 124. In between the answer is unknown, except that setting
    exhaustive_small=True runs a complete search for r <= 26 (the flag
    is ignored above that bound). The search starts from the translates
    of the sum-dominant sets of 8 and of 9..r-17 elements (module
    docstring). The witness is (the part with 1, the part with the least
    element left, the rest), with the smallest first part and then the
    least triple. `examined`
    counts the first parts {1, ...} of every size a up to that of the
    witness, or up to r - 16 if there is none: the sum of C(r-1, a-1)
    (245157 at r = 24). `classified` counts the leaves of the walk
    that builds the catalogue, as SearchReport counts them for minsize,
    and the complements classified. Both are 0 on the other paths.
    """
    _require(r, 1, "r={}")
    _require(workers, 1, "workers={}")
    if r < 3 * MIN_SD_CARD:
        return Partition3Feasibility(r, "infeasible", reason=f"3x8 > {r}")
    if r >= 145:
        # only this path loads the constructions; default_blocks validates the spec
        from .constructions import _assemble, default_blocks
        res = _assemble(default_blocks(r - 124))
        return Partition3Feasibility(r, "feasible",
                                     witness=(res.a1, res.a2, res.s))
    if exhaustive_small and r <= SMALL_SEARCH_MAX_R:
        # the catalogue: the normal forms of size 8, and of the wide sizes
        # 9..r-17 that a second part beside an 8-element one can have
        mids = range(MIN_SD_CARD - 2, max(MIN_SD_CARD - 1, r - 2 * MIN_SD_CARD - 2))
        catalogue = _scan("partition3", {"r": r}, 0, _sum_dominant,
                          _normal_tasks(range(1, r), mids), workers)
        shifted = [(len(form), form.bits << t)
                   for form in catalogue.witnesses for t in range(1, r + 1 - form.max)]
        places = tuple(q for size, q in shifted if size == MIN_SD_CARD)
        wide = tuple(q for size, q in shifted if size > MIN_SD_CARD)
        # placement i is paired with the placements after it and the wide ones,
        # in process: the 20-24 placements are too little work to fork for
        done = [_completion_worker((r, places, wide, i)) for i in range(len(places))]
        classified = catalogue.classified + sum(count for count, _ in done)
        least = min((split for _, splits in done for split in splits),
                    key=lambda split: (len(split[0]), split), default=None)
        size_a = len(least[0]) if least else r - 2 * MIN_SD_CARD  # the old walk's last
        examined = sum(math.comb(r - 1, a - 1) for a in range(MIN_SD_CARD, size_a + 1))
        if least:
            return Partition3Feasibility(r, "feasible", witness=tuple(map(IntSet, least)),
                                         examined=examined, classified=classified)
        return Partition3Feasibility(
            r, "infeasible",
            reason=f"exhaustive: no split of {{1..{r}}} into three "
                   "sum-dominant parts", examined=examined, classified=classified)
    return Partition3Feasibility(r, "unknown")
