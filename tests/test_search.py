"""Exhaustive search engines: frozen outcomes, closed-form counts, invariants."""

import functools
import math
import os
import pickle
import random
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, count, product

import pytest

from mstd import (
    ArithProg,
    BudgetExceededError,
    ConstraintViolationError,
    GapNotation,
    IntSet,
    InvalidParameterError,
    ParseError,
    Partition3Spec,
    UNIVERSE_CAP,
    UniverseOverflowError,
    ap,
    ap_pair_scan,
    default_blocks,
    k_set,
    largest_subset,
    largest_subset_scan,
    middle_window,
    min_size_scan,
    ms_condition2,
    nathanson_set,
    new_sums_on_extend,
    parse_set_literal,
    partition3,
    partition3_feasible,
    two_ap_general_scan,
)
from mstd import search
from mstd.core import _num, elements_of
from tests._oracles import (
    SD8_FORMS,
    naive_is_sum_dominant,
    ref_ap_runs,
    ref_bits_of,
    ref_cards,
    ref_completions,
    ref_diff_bits,
    ref_images,
    ref_is_sum_dominant,
    ref_largest_scan,
    ref_least_split,
    ref_minsize_scan,
    ref_pair_scan,
    ref_partition3_search,
    ref_placements,
    ref_sumset_bits,
)


def levels_examined(n, top_d):
    # full levels d = 0..top_d over the n-2 middle positions
    return sum(math.comb(n - 2, d) for d in range(top_d + 1))


class TestLargestSubset:
    def test_first_productive_length(self):
        res, rep = largest_subset_scan(15)
        assert res.n_value == 9
        assert res.witness == IntSet([0, 1, 2, 4, 5, 9, 12, 13, 14])
        # levels 0..6 scanned to completion: sum of C(13, d)
        assert rep.examined == levels_examined(15, 6) == 4096
        assert rep.classified == 182  # the rest are cut by the walk's bounds or mirrored
        assert [list(w.elements) for w in rep.witnesses] == [
            [0, 1, 2, 4, 5, 9, 12, 13, 14],
            [0, 1, 2, 5, 9, 10, 12, 13, 14],
        ]

    def test_witness_pair_is_mirror(self):
        _, rep = largest_subset_scan(15)
        a, b = rep.witnesses
        assert b == IntSet(14 - x for x in a.elements)

    def test_sixteen(self):
        res, rep = largest_subset_scan(16)
        assert res.n_value == 9
        assert rep.examined == levels_examined(16, 7) == 9908
        assert [list(w.elements) for w in rep.witnesses] == [
            [0, 1, 2, 4, 7, 8, 12, 14, 15],
            [0, 1, 3, 7, 8, 11, 13, 14, 15],
        ]

    @pytest.mark.parametrize("n", range(2, 15))
    def test_absent_below_fifteen(self, n):
        res = largest_subset(n)
        assert res.n_value is None and res.witness is None

    def test_absent_examined_closed_form(self):
        # every meaningful level scanned: d = 0..n-8
        _, rep = largest_subset_scan(14)
        assert rep.examined == levels_examined(14, 6)
        _, rep = largest_subset_scan(9)
        assert rep.examined == levels_examined(9, 1)

    def test_tiny_n_no_meaningful_levels(self):
        res, rep = largest_subset_scan(2)
        assert res.n_value is None
        assert rep.examined == 1  # only {0, 1} itself

    def test_witness_invariants(self):
        for n in (15, 17, 20):
            res = largest_subset(n)
            w = res.witness.elements
            assert w[0] == 0 and w[-1] == n - 1
            assert len(w) == res.n_value
            assert naive_is_sum_dominant(w)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as info:
            largest_subset_scan(30, max_discard=2)
        rep = info.value.report
        assert rep.examined == levels_examined(30, 2) == 407
        assert rep.witnesses == []

    def test_budget_not_raised_when_absence_settled(self):
        # n=10 needs levels 0..2 only, so max_discard=2 is conclusive
        res, _ = largest_subset_scan(10, max_discard=2)
        assert res.n_value is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            largest_subset_scan(1)
        with pytest.raises(InvalidParameterError):
            largest_subset_scan(10, max_discard=-1)

    def test_report_params(self):
        _, rep = largest_subset_scan(15)
        assert rep.search == "largest"
        assert rep.params == {"n": 15, "max_discard": 8}


# largest(33..36) together scan for about 1 s
SLOW_LARGEST = pytest.mark.slow("about 1 s of scanning")


class TestLargestMirrorWalk:
    """The outside-in walk keeps one set per mirror pair; check it against loops."""

    def test_symmetric_sets_are_balanced(self):
        # A = K-A gives A+A = K+(A-A), so the walk may skip every such leaf
        for top in range(1, 15):
            pairs = [{i, top - i} for i in range(1, top // 2 + 1)]
            for choice in product((False, True), repeat=len(pairs)):
                elems = {0, top}.union(*(pair for take, pair in zip(choice, pairs) if take))
                sc, dc = ref_cards(ref_bits_of(sorted(elems)))
                assert sc == dc

    def test_random_levels(self):
        # one level (K, j): {0, K} and j middles. The mirror walk and the
        # scan's block of the level find exactly the sets of a combinations
        # loop, each set A as (A, K-A) with K-A the larger mask
        rng = random.Random(131)
        cases = [(14, 7), (15, 8), (16, 8), (16, 9)]  # levels with witnesses
        while len(cases) < 40:
            top = rng.randrange(1, 21)
            kept = rng.randrange(max(0, top - 10), top)
            if math.comb(top - 1, kept) <= 20000:
                cases.append((top, kept))
        hits = 0
        for top, kept in cases:
            want = [e for c in combinations(range(1, top), kept)
                    for e in [(0, *c, top)] if ref_is_sum_dominant(e)]
            leaves, found = search._sum_dominant((top, kept))
            assert leaves <= math.comb(top - 1, kept)
            assert all(a < b == ref_bits_of(top - x for x in elements_of(a))
                       for a, b in zip(found[::2], found[1::2]))
            assert sorted(map(elements_of, found)) == want
            # the scan of the level's block: its leaves and its sets, sorted
            rep = search._scan("level", {}, 0, search._sum_dominant, [(top, kept)], 1)
            assert (rep.classified, rep.witnesses) == (leaves, list(map(IntSet, want)))
            hits += len(want)
        assert hits >= 8

    @pytest.mark.parametrize("n", [*range(26, 33), *(pytest.param(n, marks=SLOW_LARGEST)
                                                     for n in range(33, 37))])
    def test_beyond_the_table(self, n):
        # the fringe prediction: N(n) = n - 7 with two mirror pairs of witnesses
        res, rep = largest_subset_scan(n)
        assert res.n_value == n - 7 and len(rep.witnesses) == 4
        assert res.witness == IntSet(set(range(n)) - {3, 5, 6, n - 7, n - 6, n - 5, n - 3})
        assert rep.examined == levels_examined(n, 7)
        assert {w.elements for w in rep.witnesses} == {
            tuple(n - 1 - x for x in reversed(w.elements)) for w in rep.witnesses}


class TestMinSize:
    def test_fourteen(self):
        rep = min_size_scan(14)
        assert rep.examined == 9907 and rep.classified == 3226  # 9248 without mirror
        assert [list(w.elements) for w in rep.witnesses] == [
            [0, 2, 3, 4, 7, 11, 12, 14],
            [0, 2, 3, 7, 10, 11, 12, 14],
        ]
        for w in rep.witnesses:
            assert len(w) == 8 and naive_is_sum_dominant(w.elements)

    def test_examined_closed_form(self):
        for bound in (5, 13, 14):
            rep = min_size_scan(bound)
            closed = sum(math.comb(d - 1, j)
                         for d in range(1, bound + 1)
                         for j in range(min(6, d - 1) + 1))
            assert rep.examined == closed

    def test_thirteen_empty(self):
        rep = min_size_scan(13)
        assert rep.examined == 5811 and rep.witnesses == []

    def test_diameter_one(self):
        rep = min_size_scan(1)
        assert rep.examined == 1 and rep.witnesses == []

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            min_size_scan(0)

    def test_report_shape(self):
        rep = min_size_scan(6)
        assert rep.search == "minsize"
        assert rep.params == {"max_diameter": 6}


def run_shapes(span, diffs):
    # (rows, difference) of each run of ref_ap_runs, in its order
    return [(span - (length - 1) * d + 1, d) for d in diffs for length in range(1, span // d + 2)]


def canonical_offsets(n1, d1, n2, d2):
    # the offsets o of a row of the second run from the first's row whose
    # unions the pair scan classifies, for runs of n1 and n2 rows: o in
    # [-(n1-1), n2-1] with 2o >= n2 - n1, one per mirror class, and of
    # differences with gcd 1, or with gcd 2 and o odd; dilation and the
    # residue bound settle the rest
    g = math.gcd(d1, d2)
    return [o for o in range(1 - n1, n2)
            if 2 * o >= n2 - n1 and (g == 1 or g == 2 and o % 2)]


def canonical_count(span, diffs):
    # the unions classified: the canonical offsets of every run pair r1 <= r2
    shapes = run_shapes(span, diffs)
    return sum(len(canonical_offsets(*shapes[r1], *shapes[r2]))
               for r1 in range(len(shapes)) for r2 in range(r1, len(shapes)))


def ap_count(span, diff):
    # progressions with this difference inside {0..span}, all lengths
    out = 0
    length = 1
    while (length - 1) * diff <= span:
        out += span - (length - 1) * diff + 1
        length += 1
    return out


class TestApPairScan:
    def test_frozen_count_no_witnesses(self):
        rep = ap_pair_scan(12, 2)
        closed = sum(ap_count(12, d) ** 2 for d in (1, 2))
        assert rep.examined == closed == 10682
        # one row pair per translation-and-mirror class, of gcd 1 or odd offset
        assert rep.classified == sum(canonical_count(12, (d,)) for d in (1, 2)) == 706
        assert rep.witnesses == []

    def test_small_spans_empty(self):
        for span, diff in ((6, 1), (8, 3), (10, 2)):
            rep = ap_pair_scan(span, diff)
            assert rep.witnesses == []
            assert rep.examined == sum(ap_count(span, d) ** 2
                                       for d in range(1, diff + 1))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ap_pair_scan(0, 1)
        with pytest.raises(InvalidParameterError):
            ap_pair_scan(5, 0)

    def test_report_shape(self):
        rep = ap_pair_scan(6, 2)
        assert rep.search == "appairs"
        assert rep.params == {"max_span": 6, "max_diff": 2}


class TestTwoApGeneralScan:
    def test_frozen_count_no_witnesses(self):
        rep = two_ap_general_scan(10, 3)
        rows = sum(ap_count(10, d) for d in (1, 2, 3))
        assert rep.examined == rows * rows == 16384
        assert rep.classified == canonical_count(10, (1, 2, 3)) == 1227
        assert rep.witnesses == []

    def test_is_square_of_row_count(self):
        rep = two_ap_general_scan(7, 2)
        rows = ap_count(7, 1) + ap_count(7, 2)
        assert rep.examined == rows * rows

    def test_report_shape(self):
        rep = two_ap_general_scan(5, 1)
        assert rep.search == "twoap"


class TestPartition3Feasible:
    @pytest.mark.parametrize("r", [1, 5, 23])
    def test_counting_bound(self, r):
        out = partition3_feasible(r)
        assert out.status == "infeasible"
        assert out.reason == f"3x8 > {r}"
        assert out.witness is None and out.examined == 0

    @pytest.mark.parametrize("r", [145, 146, 200])
    def test_constructive(self, r):
        out = partition3_feasible(r)
        assert out.status == "feasible" and out.examined == 0
        a1, a2, s = out.witness
        assert (a1 | a2 | s) == IntSet(range(1, r + 1))
        assert a1.isdisjoint(a2) and a1.isdisjoint(s) and a2.isdisjoint(s)
        for part in (a1, a2, s):
            assert naive_is_sum_dominant(part.elements)

    def test_constructive_validates_the_spec_once(self, monkeypatch):
        # default_blocks validates the spec, and the split is assembled from
        # it unchecked: the same parts as partition3 of the same spec
        from mstd import constructions
        validate, checked = constructions.validate_partition_spec, []
        monkeypatch.setattr(constructions, "validate_partition_spec",
                            lambda spec: checked.append(spec.m) or validate(spec))
        for r in (145, 300):
            res = partition3(default_blocks(r - 124))
            assert partition3_feasible(r).witness == (res.a1, res.a2, res.s)
        assert checked == [21, 21, 21, 176, 176, 176]

    def test_gap_is_unknown(self):
        for r in (24, 100, 144):
            out = partition3_feasible(r)
            assert out.status == "unknown"
            assert out.reason is None and out.witness is None

    def test_exhaustive_smallest_gap_value(self):
        # independently certified: only two normalized 8-element
        # sum-dominant sets have diameter <= 23, and no placement of
        # three translated copies tiles {1..24}
        out = partition3_feasible(24, exhaustive_small=True)
        assert out.status == "infeasible"
        assert "exhaustive" in out.reason
        # the first parts {1, ...} of the one size the old walk scanned, 8
        assert out.examined == math.comb(23, 7) == 245157
        # the catalogue leaves (one set per mirror pair; 146931 without the
        # mirror walk) and the complements of disjoint placement pairs
        assert out.classified == 61408 < 146931

    def test_exhaustive_largest_gap_value(self, monkeypatch):
        tasks = []
        worker = search._completion_worker
        monkeypatch.setattr(search, "_completion_worker",
                            lambda task: tasks.append(task) or worker(task))
        out = partition3_feasible(26, exhaustive_small=True)
        # each of the 24 placements meets the wide placements that
        # test_partition3_second_parts checks against the oracle
        assert len(tasks) == 24
        assert {tuple(sorted(task[2])) for task in tasks} == {tuple(sorted(wide_placements(26)))}
        assert out.status == "infeasible" and out.witness is None
        # first parts of sizes 8, 9 and 10
        assert out.examined == sum(math.comb(25, a - 1) for a in (8, 9, 10)) == 3605250
        # the catalogue leaves of sizes 8 and 9 (one set per mirror pair) and
        # the complements
        assert out.classified == 335389

    def test_exhaustive_flag_ignored_above_bound(self):
        out = partition3_feasible(40, exhaustive_small=True)
        assert out.status == "unknown"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            partition3_feasible(0)


def break_even_zero(patch):
    # every task list of two or more blocks forks at two or more workers
    patch.setattr(search, "_FORK_WALK", 0)
    patch.setattr(search, "_FORK_PAIRS", 0)


@pytest.fixture
def always_fork(monkeypatch):
    # so that a comparison across worker counts takes the fork path
    break_even_zero(monkeypatch)


class TestParallelDeterminism:
    @pytest.mark.usefixtures("always_fork")
    def test_reports_identical_across_workers(self):
        probes = [
            lambda w: largest_subset_scan(16, workers=w)[1],
            lambda w: min_size_scan(12, workers=w),
            lambda w: ap_pair_scan(10, 2, workers=w),
            lambda w: two_ap_general_scan(8, 2, workers=w),
        ]
        for probe in probes:
            docs = [probe(w).as_dict(elapsed_s=0.0) for w in (1, 2, 8)]
            assert docs[0] == docs[1] == docs[2]

    @pytest.mark.usefixtures("always_fork")
    def test_partition_search_identical_across_workers(self):
        # r = 26 pairs the placements with the wide ones on the fork path too
        for r, workers in ((24, (1, 4)), (26, (1, 2))):
            outs = [partition3_feasible(r, exhaustive_small=True, workers=w)
                    for w in workers]
            assert outs[0] == outs[1]

    def test_only_the_fork_path_imports_pickle(self):
        # minsize(12) at 2 workers is below a fork's break-even and runs in the
        # caller; so does minsize(18) in a process that has not forked yet,
        # where the first fork's cold cost scales the break-even; minsize(22)
        # forks
        code = ("import sys, mstd.cli\n"
                "seen = lambda: ','.join(sorted({'pickle', 'signal', 'multiprocessing'}\n"
                "                               & set(sys.modules))) or '-'\n"
                "before = seen(); mstd.min_size_scan(9, workers=1); serial = seen()\n"
                "mstd.min_size_scan(12, workers=2); small = seen()\n"
                "mstd.min_size_scan(18, workers=2); cold = seen()\n"
                "mstd.min_size_scan(22, workers=2)\n"
                "print(before, serial, small, cold, seen())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["-", "-", "-", "-", "pickle,signal"]


class TestReportSerialization:
    def test_witness_sets_become_lists(self):
        rep = min_size_scan(14)
        doc = rep.as_dict(elapsed_s=0.0)
        assert doc["search"] == "minsize"
        assert doc["witnesses"][0] == [0, 2, 3, 4, 7, 11, 12, 14]
        assert doc["elapsed_s"] == 0.0

    def test_elapsed_passthrough(self):
        rep = min_size_scan(3)
        assert rep.as_dict()["elapsed_s"] == rep.elapsed
        assert set(rep.as_dict()) == {
            "search", "params", "examined", "witnesses", "elapsed_s"}


def witness_lists(rep):
    return [w.elements for w in rep.witnesses]


def stand_in_verdict(sc, dc):
    # accepts about a third of the progression unions, which are never
    # sum-dominant, so that the pair scans' witness path has work
    return (sc + dc) % 3 == 0


def small_verdict(sc, dc):
    # accepts the unions of at most three elements, {0} alone too
    return sc <= 6


@functools.cache
def stand_in_pair_scan(span, groups, verdict=stand_in_verdict):
    # the per-union reference under a stand-in verdict, without the pairs
    # the residue bound settles
    return ref_pair_scan(span, groups, verdict, residue=True)


def assert_pair_witnesses(monkeypatch, verdict, workers):
    # both pair scans of span 10 and differences up to 4 under the verdict
    # report the reference's witnesses
    monkeypatch.setattr(search, "_dominates", verdict)
    for scan, groups in ((ap_pair_scan, ((1,), (2,), (3,), (4,))),
                         (two_ap_general_scan, ((1, 2, 3, 4),))):
        examined, hits = stand_in_pair_scan(10, groups, verdict)
        rep = scan(10, 4, workers=workers)
        assert len(hits) > 100 and ((0,) in hits) == (verdict is small_verdict)
        assert (rep.examined, witness_lists(rep)) == (examined, hits)


@functools.cache
def wide_placements(r):
    # the translates inside {1..r} of the walk's sum-dominant sets of 9..r-17
    # elements: the partition search's second parts beside an 8-element part
    forms = [elements_of(w) for task in search._normal_tasks(range(1, r), range(7, r - 18))
             for w in search._sum_dominant(task)[1]]
    return tuple(ref_bits_of(x + t for x in form)
                 for form in forms for t in range(1, r + 1 - form[-1]))


# classified counts of largest(n) and minsize(bound): the walk's leaves
LARGEST_CLASSIFIED = {2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0, 11: 4,
                      12: 25, 13: 60, 14: 188, 15: 182, 16: 445, 17: 421, 18: 384}
MINSIZE_CLASSIFIED = {1: 1, 2: 3, 3: 6, 4: 12, 5: 23, 6: 41, 7: 71, 8: 125, 9: 217,
                      10: 377, 11: 659, 12: 1124, 13: 1920, 14: 3226, 15: 5260,
                      16: 8533, 17: 13526, 18: 20495, 19: 30488, 20: 43712,
                      21: 60160, 22: 80782}


class TestSumDominantWalk:
    """The mirror walk of one level (D, j) against the combinations loop it replaces.

    A level is the prefix {0}, j middles from the pool 1..D-1 and the tail
    {D}; the walk returns each sum-dominant set A as (A, D-A), D-A the
    larger mask.
    """

    @staticmethod
    def check(top, j):
        want = [e for c in combinations(range(1, top), j)
                for e in [(0, *c, top)] if ref_is_sum_dominant(e)]
        leaves, found = search._sum_dominant((top, j))
        assert all(a < b == ref_bits_of(top - x for x in elements_of(a))
                   for a, b in zip(found[::2], found[1::2]))
        got = sorted(map(elements_of, found))
        assert got == want
        assert leaves <= math.comb(top - 1, j)
        return got, leaves

    def test_one_element_prefix_finds_the_eight_element_witnesses(self):
        # the two diameter-14 forms, one mirror pair
        assert self.check(14, 6)[0] == [
            (0, 2, 3, 4, 7, 11, 12, 14), (0, 2, 3, 7, 10, 11, 12, 14)]

    def test_k_zero_is_prefix_and_tail(self):
        # j = 0: {0, D} alone, one leaf and never sum-dominant
        for top in range(1, 30):
            assert self.check(top, 0) == ([], 1)

    def test_pool_of_exactly_k(self):
        # j = D-1: the whole interval {0..D}, a progression, so balanced. The
        # one middle of D = 2 is a leaf of the root's last level; from D = 3
        # on the bounds cut the node that takes 1, and no leaf is reached
        assert self.check(1, 0) == self.check(2, 1) == ([], 1)
        for top in range(3, 30):
            assert self.check(top, top - 1) == ([], 0)

    def test_free_top_is_the_union_of_levels(self):
        # the sum-dominant 8-sets with least element 0 inside {0..14}, whatever
        # their top element, are the levels (D, 6), D <= 14, together
        want = [e for c in combinations(range(1, 15), 7)
                for e in [(0, *c)] if ref_is_sum_dominant(e)]
        assert len(want) == 2
        assert sorted(w for top in range(1, 15) for w in self.check(top, 6)[0]) == want

    def test_more_than_the_pool_holds(self):
        # j >= D: no j-subset of 1..D-1, so no set and no leaf
        for top in range(1, 12):
            for j in range(top, top + 3):
                assert search._sum_dominant((top, j)) == (0, [])
                assert search._block_count((top, j)) == 0

    def test_random_blocks(self):
        rng = random.Random(89)
        for _ in range(150):
            top = rng.randrange(1, 19)
            self.check(top, rng.randint(0, top - 1))

    def test_random_blocks_of_wide_diameter(self):
        # diameters 19..26, far beyond the first middles; few or many middles
        # keep the loop short
        rng = random.Random(97)
        for _ in range(40):
            top = rng.randrange(19, 27)
            self.check(top, rng.choice([rng.randint(0, 3), rng.randint(top - 5, top - 1)]))

    def test_random_largest_shaped_blocks(self):
        # (n-1, n-2-d): a level of largest(n) with d <= 5 discards and 12 or
        # more elements, where the bound cuts deep subtrees
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randrange(13, 23)
            self.check(n - 1, n - 2 - rng.randrange(6))

    def test_magnitude_floor_is_exact(self):
        # a node that has just taken pool[i], with its taken middles T of
        # pool[:i+1] and k middles still to take from U = pool[i+1:], has the
        # floor |D - U| + k, D the magnitudes of {0, K} u T. At every such node
        # of every level (K, j), K <= 12 (the walk's nodes are among them),
        # 2*floor - 1 is at most the least |A-A| of the node's completions; it
        # passes 2|D| - 1 at some nodes and meets that least at some
        raised = tight = 0
        for top in range(2, 13):
            pool = sorted(range(1, top), key=lambda x: (min(x, top - x), x))
            least = {}  # (i, T, j) -> the least |A-A| of the completions
            for choice in product((False, True), repeat=len(pool)):
                mids = [x for x, take in zip(pool, choice) if take]
                dc = ref_cards(ref_bits_of([0, *mids, top]))[1]
                for i in (i for i, take in enumerate(choice) if take):
                    key = (i, ref_bits_of(mids[:sum(choice[:i + 1])]), len(mids))
                    least[key] = min(least.get(key, dc), dc)
            for (i, taken, j), dc in least.items():
                d = ref_diff_bits(taken | 1 | 1 << top)
                floor = (d & ~ref_bits_of(pool[i + 1:])).bit_count() + j - taken.bit_count()
                assert 2 * floor - 1 <= dc, (top, i, taken, j)
                raised += floor > d.bit_count()
                tight += 2 * floor - 1 == dc
        assert raised and tight

    def test_bound_cuts_subtrees(self):
        # the 8-element levels of diameter 14 and 24, and the productive level
        # of largest(25); of their 1716, 100947 and 245157 candidates the walk
        # classifies only these
        for (top, j), hits, leaves in [((14, 6), 2, 303), ((24, 6), 0, 19249),
                                       ((24, 16), 4, 2)]:
            got, found = search._sum_dominant((top, j))
            assert (len(found), got) == (hits, leaves)
            assert leaves < math.comb(top - 1, j)


class TestMirrorFold:
    """The one mirror walk of the normalized blocks against loops."""

    def test_every_block(self):
        # every (D, j), D <= 16 (j <= 6 is the minsize slice, the larger j
        # bring witnesses of 9 to 12 elements): each set A of the loop
        # comes as (A, D-A) with D-A the larger mask
        ties = gaps = 0
        for top in range(1, 17):
            for j in range(top):
                want = [e for c in combinations(range(1, top), j)
                        for e in [(0, *c, top)] if ref_is_sum_dominant(e)]
                task = (top, j)
                assert search._normal_tasks((top,), (j,)) == [task]
                leaves, found = search._sum_dominant(task)
                assert all(a < b == ref_bits_of(top - x for x in elements_of(a))
                           for a, b in zip(found[::2], found[1::2]))
                assert sorted(map(elements_of, found)) == want
                assert leaves <= math.comb(top - 1, j)
                if j < 2:  # {0, D} is symmetric; one middle is taken at the last level
                    assert leaves == math.comb(top - 1, j)
                for a in map(elements_of, found[::2]):
                    ties += a[1] == top - a[-2]
                    gaps += a[1] < top - a[-2]
        assert ties >= 2 and gaps >= 2  # first gap equal to and below the last

    def test_tie_block(self):
        # the diameter-14 forms have first gap = last gap = 2, and the walk
        # emits the pair once
        _, found = search._sum_dominant((14, 6))
        assert list(map(elements_of, found)) == [
            (0, 2, 3, 4, 7, 11, 12, 14), (0, 2, 3, 7, 10, 11, 12, 14)]

    @pytest.mark.parametrize("r", [24, 25, 26])
    def test_catalogue_forms(self, r):
        # the partition search's 8-element catalogue against Hegarty's forms,
        # and every level of diameter <= 17 against the combinations loop
        tasks = search._normal_tasks(range(1, r), (6,))
        forms = sorted(elements_of(w) for task in tasks for w in search._sum_dominant(task)[1])
        loop = [e for top in range(1, 18) for c in combinations(range(1, top), 6)
                for e in [(0, *c, top)] if ref_is_sum_dominant(e)]
        assert forms == list(SD8_FORMS) == loop


class TestAgainstReferenceLoops:
    """Every engine against its old combinations loop, at 1 and 2 workers."""

    @pytest.mark.parametrize("n", range(2, 19))
    def test_largest(self, n):
        examined, hits = ref_largest_scan(n)
        for workers in (1, 2):
            _, rep = largest_subset_scan(n, workers=workers)
            assert (rep.examined, witness_lists(rep)) == (examined, hits)
            assert rep.classified == LARGEST_CLASSIFIED[n] <= examined

    @pytest.mark.parametrize("bound", range(1, 23))
    @pytest.mark.usefixtures("always_fork")
    def test_minsize(self, bound):
        examined, hits = ref_minsize_scan(bound)
        for workers in (1, 2, 8):
            rep = min_size_scan(bound, workers=workers)
            assert (rep.examined, witness_lists(rep)) == (examined, hits)
            assert rep.classified == MINSIZE_CLASSIFIED[bound] <= examined

    @pytest.mark.parametrize("scan,groups,span,max_diff", [
        (ap_pair_scan, [(1,)], 6, 1),
        (ap_pair_scan, [(1,), (2,), (3,)], 8, 3),
        (ap_pair_scan, [(1,), (2,), (3,), (4,)], 13, 4),
        (two_ap_general_scan, [(1, 2)], 7, 2),
        (two_ap_general_scan, [(1, 2, 3)], 10, 3),
    ])
    @pytest.mark.usefixtures("always_fork")
    def test_pairs(self, scan, groups, span, max_diff):
        examined, hits = ref_pair_scan(span, groups)
        rows = [ap_count(span, d) for d in range(1, max_diff + 1)]
        for workers in (1, 2):
            rep = scan(span, max_diff, workers=workers)
            assert (rep.examined, witness_lists(rep)) == (examined, hits)
        assert rep.classified == sum(canonical_count(span, diffs) for diffs in groups)
        assert rep.classified < sum(rows) * (sum(rows) + 1) // 2  # unordered row pairs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_benchmark_pair_counts(self, workers):
        # the pair calls of the benchmark's scan mix: ordered pairs, and one
        # union classified per translation-and-mirror class of gcd 1, or of
        # gcd 2 and an odd offset
        for scan, span, max_diff, counts in ((ap_pair_scan, 34, 4, (580401, 12681)),
                                             (two_ap_general_scan, 26, 5, (811801, 25519))):
            rep = scan(span, max_diff, workers=workers)
            assert (rep.examined, rep.classified) == counts and rep.witnesses == []

    def test_larger_pair_boxes(self):
        # the paper's first result and its conjecture past the benchmark's mix
        for scan, span, max_diff, groups, counts in (
                (ap_pair_scan, 100, 6, [(d,) for d in range(1, 7)], (40081121, 294901)),
                (two_ap_general_scan, 60, 8, [tuple(range(1, 9))], (28132416, 391216))):
            rep = scan(span, max_diff, workers=2)
            assert (rep.examined, rep.classified) == counts and rep.witnesses == []
            assert rep.classified == sum(canonical_count(span, diffs) for diffs in groups)

    @pytest.mark.slow("about 2 s of scanning")
    def test_conjecture_span_100_diff_12(self):
        # every pair of progressions with differences up to 12 inside {0..100}
        rep = two_ap_general_scan(100, 12, workers=2)
        assert (rep.examined, rep.classified) == (270306481, 2226245)
        assert rep.witnesses == []

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.usefixtures("always_fork")
    def test_unordered_pairs_reach_every_union(self, workers, monkeypatch):
        # progression unions are never sum-dominant, so a stand-in verdict
        # that accepts about a third of them checks the witness path: one
        # union classified per translation-and-mirror class, its mirror,
        # translates and dilates re-emitted; the reference does not ask the
        # pairs that the residue bound settles, as the scan does not
        assert_pair_witnesses(monkeypatch, stand_in_verdict, workers)

    @pytest.mark.usefixtures("always_fork")
    def test_small_unions_reach_every_image(self, monkeypatch):
        # {0} and the other unions of at most three elements: {0} is its own
        # mirror and every dilate of it
        assert_pair_witnesses(monkeypatch, small_verdict, 2)

    def test_mirrors_and_dilates_are_emitted(self, monkeypatch):
        # under the stand-in verdict the translates of the unions classified
        # are only part of the witnesses; every other one is a translate of
        # the mirror or a dilate h*u of a union classified or of its mirror,
        # and each kind is needed
        classified, images = [], search._images

        def spy(u, *args):
            classified.append(u)
            return images(u, *args)
        monkeypatch.setattr(search, "_dominates", stand_in_verdict)
        monkeypatch.setattr(search, "_images", spy)
        for scan, groups in ((ap_pair_scan, ((1,), (2,), (3,), (4,))),
                             (two_ap_general_scan, ((1, 2, 3, 4),))):
            classified.clear()
            witnesses = scan(10, 4).witnesses
            mirrors = [ref_bits_of(u.bit_length() - 1 - x for x in elements_of(u))
                       for u in classified]
            # the first kind that reaches a set wins: translates, mirrors, dilates
            kinds = {}
            for kind, h, ws in [("translate", 1, classified), ("mirror", 1, mirrors)] + [
                    ("dilate", h, classified + mirrors) for h in range(2, 11)]:
                for w in ws:
                    kinds.setdefault(ref_bits_of(h * x for x in elements_of(w)), kind)
            got = Counter(kinds.get(w.bits >> w.min) for w in witnesses)
            assert set(got) == {"translate", "mirror", "dilate"}
            assert stand_in_pair_scan(10, groups)[1] == [w.elements for w in witnesses]

    def test_images_match_the_element_loop(self, monkeypatch):
        # every witness's images under the stand-in verdict, and those of
        # random unions with least element 0, {0} too, against element loops
        calls, images = [], search._images

        def spy(*args):
            calls.append((args, images(*args)))
            return calls[-1][1]
        monkeypatch.setattr(search, "_dominates", stand_in_verdict)
        monkeypatch.setattr(search, "_images", spy)
        ap_pair_scan(10, 4)
        two_ap_general_scan(10, 4)
        assert len(calls) > 300
        rng = random.Random(71)
        for _ in range(300):
            u = 1 | rng.getrandbits(rng.randint(0, 12)) << 1
            diff, span = rng.randint(1, 4), rng.randint(u.bit_length() - 1, 30)
            args = (u, diff, span, rng.randint(diff, 12))
            calls.append((args, images(*args)))
        for args, got in calls:
            assert got == ref_images(*args), args

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.usefixtures("always_fork")
    def test_partition3(self, workers):
        # the old walk over every first part {1, ...} is the oracle
        out = partition3_feasible(24, exhaustive_small=True, workers=workers)
        assert (out.examined, out.witness) == ref_partition3_search(24) == (245157, None)
        assert out.classified == 61408 <= out.examined

    def test_partition3_25(self):
        out = partition3_feasible(25, exhaustive_small=True)
        assert (out.examined, out.witness) == ref_partition3_search(25) == (1081575, None)
        assert out.classified == 80660 < 188868  # 188868: the catalogue without mirror

    @pytest.mark.parametrize("r", [24, 25])
    @pytest.mark.usefixtures("always_fork")
    def test_partition3_witness_path(self, r, monkeypatch):
        # no split of {1..26} exists; accepting every complement makes each
        # pair of disjoint sum-dominant 8-sets a split, so the search must
        # report them all and pick the oracle's witness
        monkeypatch.setattr(search, "sum_diff_cards", lambda bits: (1, 0))
        seen = []
        worker = search._completion_worker

        def spy(task):
            classified, splits = worker(task)
            seen.extend(splits)
            return classified, splits
        places = ref_placements(r)
        want = [split for i in range(len(places))
                for split in ref_completions(r, places, i)]
        examined, witness = ref_least_split(r, want)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_completion_worker", spy)
            out = partition3_feasible(r, exhaustive_small=True)
        assert sorted(seen) == sorted(want) and len(want) >= 12
        for out in (out, partition3_feasible(r, exhaustive_small=True, workers=2)):
            assert out.status == "feasible"
            assert (out.examined, tuple(p.elements for p in out.witness)) == (
                examined, witness)
        # at r = 25 the least triple has a 9-element part with 1, so the
        # witness is decided by the smallest first part
        assert len(witness[0]) == 8
        assert len(min(want)[0]) == {24: 8, 25: 9}[r]

    @pytest.mark.parametrize("i", [0, 4, 6, 8, 10, 20, 22, 23])
    def test_partition3_second_parts(self, i, monkeypatch):
        # at r = 26 every placement but 0 of these leaves 9-element second
        # parts that are sum-dominant, and the wide placements hold them; with
        # every complement accepted they become splits
        monkeypatch.setattr(search, "sum_diff_cards", lambda bits: (1, 0))
        places = ref_placements(26)
        _, splits = search._completion_worker(
            (26, tuple(map(ref_bits_of, places)), wide_placements(26), i))
        want = ref_completions(26, places, i)
        assert sorted(splits) == sorted(want)
        assert any(len(part) == 9 for split in want for part in split) == (i != 0)


class TestPairRecurrence:
    """The pair worker's (|A+A|, |A-A|) for every canonical pair, against ref_cards.

    A canonical pair is a row of one run at a canonical offset from the
    first row of another, or of the same, run (canonical_offsets). The
    worker's block is one run r1 and one parity: it hands each pair's cards
    to search._dominates in its order, r1 against the runs r2 = r1 + half,
    r1 + half + 2, ...: the first row of r1 with the rows at offsets o >= 0
    of r2, then, going out, its rows -o for o < 0 with the first of r2; a
    recorder in its place collects them.
    """

    @staticmethod
    def worker_cards(monkeypatch, span, diffs, blocks):
        # the cards of the given (run, half) blocks, one block after the other
        seen = []
        monkeypatch.setattr(search, "_dominates", lambda sc, dc: seen.append((sc, dc)))
        runs = search._ap_runs(span, diffs)  # (rows, diff, length, first row, its sums)
        assert [(rows, a, sums) for rows, _, _, a, sums in runs] == [
            (len(run), run[0], ref_sumset_bits(run[0])) for run in ref_ap_runs(span, diffs)]
        for r, half in blocks:
            before = len(seen)
            unions, _ = search._pair_block_worker((span, max(diffs), runs, r, half))
            assert unions == len(seen) - before
        return seen

    @staticmethod
    def canonical(span, diffs, blocks):
        # ((run, start), (run, start)) in the worker's order for these blocks
        shapes = run_shapes(span, diffs)
        out = []
        for r1, half in blocks:
            for r2 in range(r1 + half, len(shapes), 2):
                offsets = canonical_offsets(*shapes[r1], *shapes[r2])
                out += [((r1, 0), (r2, o)) for o in offsets if o >= 0]
                out += [((r1, -o), (r2, 0)) for o in reversed(offsets) if o < 0]
        return out

    @staticmethod
    def ref_cards_of(runs, pairs):
        return [ref_cards(runs[r1][s1] | runs[r2][s2]) for (r1, s1), (r2, s2) in pairs]

    @pytest.mark.parametrize("span,diffs", [
        *[(span, diffs) for span in range(1, 13)
          for diffs in ((1,), (2,), (3,), (1, 2, 3))],
        (9, (1, 2, 3, 4, 5)),
        (20, (1, 2, 3, 4)),
        (14, (2, 4, 6)),
    ])
    def test_every_pair(self, monkeypatch, span, diffs):
        runs = ref_ap_runs(span, diffs)
        shapes = run_shapes(span, diffs)
        blocks = [(r, half) for r in range(len(runs)) for half in (0, 1)]
        canon = self.canonical(span, diffs, blocks)
        want = self.ref_cards_of(runs, canon)
        # the blocks in task order, concatenated, give the canonical order
        assert self.worker_cards(monkeypatch, span, diffs, blocks) == want
        count = Counter(canon)
        assert sum(count.values()) == len(count)

        def key(r1, r2, o):  # the row pair of runs r1, r2 at offset o, least start 0
            return (r1, max(0, -o)), (r2, max(0, o))
        # every unordered row pair of differences with gcd 1, or gcd 2 and an
        # odd offset, is a translate of one canonical pair or of the mirror of
        # one, exactly; no other row pair is canonical
        rows = [(r, t) for r, run in enumerate(runs) for t in range(len(run))]
        for i, (r1, s1) in enumerate(rows):
            for r2, s2 in rows[i:]:
                (n1, d1), (n2, d2) = shapes[r1], shapes[r2]
                o, c = s2 - s1, n2 - n1
                (a1, b1), (a2, b2) = key(r1, r2, o), key(r1, r2, c - o)
                union = runs[a1[0]][a1[1]] | runs[b1[0]][b1[1]]
                assert runs[r1][s1] | runs[r2][s2] == union << min(s1, s2)
                top = union.bit_length() - 1
                # the mirror top - (A u B) is the pair of the same runs at c - o
                assert ref_bits_of(top - x for x in elements_of(union)) == (
                    runs[a2[0]][a2[1]] | runs[b2[0]][b2[1]])
                classes = count[key(r1, r2, o)] + (c != 2 * o) * count[key(r1, r2, c - o)]
                g = math.gcd(d1, d2)
                assert classes == (g == 1 or g == 2 and o % 2 == 1)

    def test_mid_run_row_longer_than_later_rows(self, monkeypatch):
        # span 9, diffs 1..5: run 1 holds the rows {s, s+1}, longer than the
        # 40 singletons of differences 2 to 5 in later runs. The pair of
        # {4, 5} with {v} is at offset o = v - 4, and its mirror at 1 - o;
        # the larger of the two is canonical, {0, 1} against {o} in run 1's
        # even or odd block, and the blocks also sweep run 1's later rows
        # against shorter runs
        span, diffs, r = 9, (1, 2, 3, 4, 5), 1
        runs = ref_ap_runs(span, diffs)
        assert elements_of(runs[r][4]) == (4, 5)
        later = [(r2, v) for r2 in range(r + 1, len(runs))
                 for v in range(len(runs[r2])) if runs[r2][v].bit_count() < 2]
        assert len(later) == 40
        canon = self.canonical(span, diffs, [(r, 0), (r, 1)])
        for r2, v in later:
            o = max(v - 4, 5 - v)
            assert ((r, 0), (r2, o)) in canon
        assert any(s1 > 0 for (_, s1), _ in canon)
        assert (self.worker_cards(monkeypatch, span, diffs, [(r, 0), (r, 1)])
                == self.ref_cards_of(runs, canon))


class TestParameterChecks:
    """Every public scan wants int bounds and worker counts of at least 1.

    The constructions and lemmas want int parameters as well.
    """

    SCANS = {
        "largest": lambda w: largest_subset(10, workers=w),
        "largest_scan": lambda w: largest_subset_scan(10, workers=w),
        "minsize": lambda w: min_size_scan(5, workers=w),
        "appairs": lambda w: ap_pair_scan(5, 1, workers=w),
        "twoap": lambda w: two_ap_general_scan(5, 2, workers=w),
        "partition3": lambda w: partition3_feasible(30, workers=w),
        "partition3_exhaustive": lambda w: partition3_feasible(
            24, exhaustive_small=True, workers=w),
    }

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True])
    @pytest.mark.parametrize("scan", SCANS)
    def test_bad_workers(self, scan, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            self.SCANS[scan](workers)

    def test_worker_count_in_the_message(self):
        with pytest.raises(InvalidParameterError, match=r"workers=0 must be at least 1"):
            ap_pair_scan(5, 1, workers=0)
        with pytest.raises(InvalidParameterError, match=r"must be an int, not bool"):
            min_size_scan(5, workers=True)

    def test_good_workers_still_scan(self):
        assert two_ap_general_scan(5, 2, workers=1).examined == 1089
        assert ap_pair_scan(5, 1, workers=2).examined == 21 ** 2

    @pytest.mark.parametrize("call", [
        lambda: largest_subset(14.0),
        lambda: largest_subset_scan(10, max_discard=2.5),
        lambda: largest_subset_scan(True),
        lambda: min_size_scan(2.0),
        lambda: min_size_scan(True),
        lambda: ap_pair_scan(2.5, 1),
        lambda: ap_pair_scan(5, True),
        lambda: two_ap_general_scan(5, 2.0),
        lambda: partition3_feasible(25.0),
        lambda: partition3_feasible(True),
        lambda: partition3_feasible("25"),
    ])
    def test_non_int_bounds(self, call):
        with pytest.raises(InvalidParameterError, match="must be an int"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: k_set(20.0),
        lambda: nathanson_set(6.0),
        lambda: ap(0, 1.0, 3),
        lambda: ap(0, True, 3),
        lambda: ap("0", 1, 3),
        lambda: middle_window(25.0),
        lambda: default_blocks(25.0),
        lambda: new_sums_on_extend(IntSet([0, 1]), 3.0),
        lambda: ArithProg(0, 1.5, 3),
        lambda: ArithProg(0, 1, 3)._replace(length=2.0),
        lambda: ms_condition2(IntSet([0, 1, 2]), 2.5),
    ])
    def test_non_int_library_parameters(self, call):
        # the constructions and lemmas check their int parameters as the
        # scans do
        with pytest.raises(InvalidParameterError, match="must be an int"):
            call()

    HUGE = 10 ** 5000  # 5001 digits, more than str() converts

    @pytest.mark.parametrize("call, error, message", [
        (lambda h: IntSet([h]), UniverseOverflowError,
         "element <int of 5001 digits> is at or beyond the universe cap 16777216"),
        (lambda h: IntSet([-h]), InvalidParameterError,
         "set element -<int of 5001 digits> is negative"),
        (lambda h: k_set(h), UniverseOverflowError,
         "k_set reaches <int of 5001 digits>, at or beyond the cap 16777216"),
        (lambda h: nathanson_set(-h), InvalidParameterError,
         "nathanson_set needs k >= 5, got -<int of 5001 digits>"),
        (lambda h: middle_window(-h), InvalidParameterError,
         "window needs m >= 21, got -<int of 5001 digits>"),
        (lambda h: ap(-h, 1, 2), InvalidParameterError,
         "start -<int of 5001 digits> is negative"),
        (lambda h: IntSet([1]).shift(h), UniverseOverflowError,
         "shift by <int of 5001 digits> reaches the universe cap"),
        (lambda h: new_sums_on_extend(IntSet([1]), h), UniverseOverflowError,
         "extension point <int of 5001 digits> is beyond the cap"),
        (lambda h: GapNotation(0, (h,)).to_intset(), UniverseOverflowError,
         "element <int of 5001 digits> is at or beyond the universe cap 16777216"),
        (lambda h: largest_subset_scan(-h), InvalidParameterError,
         "interval length n=-<int of 5001 digits> must be at least 2"),
        # a bound that passes its check is never formatted
        (lambda h: largest_subset_scan(h, max_discard=-1), InvalidParameterError,
         "max_discard must be at least 0"),
        (lambda h: partition3_feasible(h), UniverseOverflowError,
         "the three-part split reaches <int of 5001 digits>, at or beyond the cap 16777216"),
        (lambda h: partition3_feasible(-h), InvalidParameterError,
         "r=-<int of 5001 digits> must be at least 1"),
        (lambda h: min_size_scan(3, workers=-h), InvalidParameterError,
         "workers=-<int of 5001 digits> must be at least 1"),
    ], ids=["intset_top", "intset_negative", "k_set", "nathanson_set", "middle_window", "ap",
            "shift", "new_sums_on_extend", "gap_notation", "largest_n", "largest_unformatted",
            "partition3_cap", "partition3_r", "minsize_workers"])
    def test_ints_too_long_to_print(self, call, error, message):
        # the range checks name an int too long for str() by its digit count
        with pytest.raises(error) as got:
            call(self.HUGE)
        assert str(got.value) == message

    @pytest.mark.parametrize("bound", [HUGE, UNIVERSE_CAP + 1], ids=["huge", "cap_plus_1"])
    @pytest.mark.parametrize("scan", [
        largest_subset_scan,
        largest_subset,
        min_size_scan,
        lambda span: ap_pair_scan(span, 3),
        lambda span: two_ap_general_scan(span, 3),
    ], ids=["largest_scan", "largest", "minsize", "appairs", "twoap"])
    def test_bounds_past_the_cap(self, scan, bound):
        # checked before any range or task list is built: past the cap a
        # walk would never end, and 10**5000 would not fit a range
        t0 = time.perf_counter()
        with pytest.raises(UniverseOverflowError, match="at or beyond the cap 16777216"):
            scan(bound)
        assert time.perf_counter() - t0 < 0.1

    def test_huge_worker_count_scans(self):
        assert min_size_scan(3, workers=self.HUGE).as_dict(elapsed_s=0.0) == \
            min_size_scan(3).as_dict(elapsed_s=0.0)

    def test_digit_count_of_long_ints(self):
        # str() converts 4300 digits; past that the count is exact at every
        # power of ten
        assert _num(-(10 ** 4299)) == str(-(10 ** 4299))
        for digits in (4302, 4303, 5001, 12345, 100000):
            assert _num(10 ** (digits - 1) - 1) == f"<int of {digits - 1} digits>"
            assert _num(10 ** (digits - 1)) == f"<int of {digits} digits>"
            assert _num(-(10 ** digits - 1)) == f"-<int of {digits} digits>"


class TestScanPlumbing:
    def test_no_fork_at_one_worker_or_one_block(self, monkeypatch):
        forks = counting_fork(monkeypatch)
        # the children at 2 workers, and at 2 workers with a break-even of 0
        scans = [  # several levels, difference groups or first-part sizes each
            (lambda w: largest_subset_scan(16, workers=w), 0, 0),  # one block per level
            (lambda w: min_size_scan(10, workers=w), 0, 1),  # below the break-even
            (lambda w: ap_pair_scan(10, 3, workers=w), 0, 1),  # all differences in one list
            # the catalogue walk forks; the completions run in process
            (lambda w: partition3_feasible(25, exhaustive_small=True, workers=w), 1, 1),
        ]
        for forced in (False, True):
            if forced:
                break_even_zero(monkeypatch)
            for scan, *children in scans:
                forks.clear()
                scan(1)
                assert forks == []
                scan(2)  # one child per task list of more than one block, when forced
                assert len(forks) == children[forced]
        assert_no_children()

    def test_a_list_forks_only_the_children_its_work_covers(self, monkeypatch):
        # a list's work is a walk's sum of C(D-1, j) over its levels or a pair
        # scan's examined, and it runs on one process per break-even of that,
        # at most: the acceptance suite's small searches fork nothing at 2 or
        # 8 workers, the benchmark's forking scans one child at 2, and at
        # 10**5 workers no list forks past its work. In a process that has not
        # forked yet the break-even is _COLD times as large, so of these only
        # minsize(22) and the three-part catalogue fork there
        forks = counting_fork(monkeypatch, cap=8)
        walk, pairs = search._FORK_WALK, search._FORK_PAIRS
        table = [  # scan, work, break-even, blocks, children at 2, 8 and 10**5
            # workers, warm, then in a process that has not forked
            (lambda w: min_size_scan(12, workers=w), 3301, walk, 63, 0, 0, 0, 0, 0, 0),
            (lambda w: ap_pair_scan(15, 2, workers=w), 23680, pairs, 48, 0, 0, 0, 0, 0, 0),
            (lambda w: two_ap_general_scan(12, 2, workers=w), 19600, pairs, 40, 0, 0, 0, 0, 0, 0),
            (lambda w: min_size_scan(16, workers=w), 26332, walk, 91, 0, 0, 0, 0, 0, 0),
            (lambda w: min_size_scan(18, workers=w), 63003, walk, 105, 1, 3, 3, 0, 0, 0),
            (lambda w: ap_pair_scan(34, 4, workers=w), 580401, pairs, 148, 1, 2, 2, 0, 0, 0),
            (lambda w: two_ap_general_scan(26, 5, workers=w), 811801, pairs, 126, 1, 4, 4,
             0, 0, 0),
            (lambda w: min_size_scan(22, workers=w), 280599, walk, 133, 1, 7, None, 1, 5, 5),
            (lambda w: partition3_feasible(25, True, w), 346104, walk, 18, 1, 7, None, 1, 6, 6),
        ]
        lists, real_blocks = [], search._run_blocks
        monkeypatch.setattr(search, "_run_blocks",
                            lambda fn, tasks, *a: lists.append(tasks) or real_blocks(fn, tasks, *a))
        for scan, work, even, blocks, *children in table:
            for cold, row in ((False, children[:3]), (True, children[3:])):
                for workers, want in zip((2, 8, 10 ** 5), row):
                    if want is None:  # a dozen children or more: left to the formula
                        continue
                    monkeypatch.setattr(search, "_forked", not cold)
                    forks.clear()
                    lists.clear()
                    scan(workers)
                    assert len(lists[0]) == blocks
                    share = even * search._COLD if cold else even
                    assert len(forks) == want == max(0, min(workers, blocks, work // share) - 1)
                    assert search._forked == (not cold or want > 0)
        assert_no_children()

    @pytest.mark.usefixtures("always_fork")
    def test_without_fork_scans_run_in_process(self, monkeypatch):
        want = min_size_scan(12).as_dict(elapsed_s=0.0)
        monkeypatch.delattr(os, "fork")  # as on a platform without it
        assert min_size_scan(12, workers=2).as_dict(elapsed_s=0.0) == want

    def test_never_more_processes_than_blocks(self, monkeypatch):
        forks = counting_fork(monkeypatch)
        for workers, tasks, children in [(10 ** 5, 3, 2), (2, 5, 1), (3, 1, 0), (1, 4, 0)]:
            forks.clear()
            assert search._run_blocks(abs, list(range(-tasks, 0)), workers) == \
                list(range(tasks, 0, -1))
            assert len(forks) == children
        assert_no_children()

    def test_even_blocks_cover_runs_in_balance(self, monkeypatch):
        # the pair scans of the benchmark's mix and two larger ones (the test
        # suite's appairs(100,6) and twoap(60,8)): the blocks cover each run of
        # each difference group twice, its partner runs split between them
        # by parity, each classifies the reference count of unions, and
        # dealt in task order to 2..8 processes, each taking the next block
        # when it is free, no process gets more than 1% over an even share
        lists = []

        def run_in_process(fn, tasks, workers):
            out = [fn(t) for t in tasks]
            lists.append((tasks, [count for count, _ in out]))
            return out
        monkeypatch.setattr(search, "_run_blocks", run_in_process)
        for scan, span, max_diff, groups in (
                (ap_pair_scan, 34, 4, [(1,), (2,), (3,), (4,)]),
                (ap_pair_scan, 100, 6, [(1,), (2,), (3,), (4,), (5,), (6,)]),
                (two_ap_general_scan, 26, 5, [(1, 2, 3, 4, 5)]),
                (two_ap_general_scan, 60, 8, [(1, 2, 3, 4, 5, 6, 7, 8)])):
            lists.clear()
            rep = scan(span, max_diff, workers=2)
            [(tasks, weights)] = lists
            want_runs, want_sweep = [], []
            for diffs in groups:
                shapes = run_shapes(span, diffs)
                for r in range(len(shapes)):
                    for half in (0, 1):
                        want_runs.append((len(shapes), r, half))
                        want_sweep.append(sum(
                            len(canonical_offsets(*shapes[r], *shapes[r2]))
                            for r2 in range(r + half, len(shapes), 2)))
            assert [(len(runs), r, half) for _, _, runs, r, half in tasks] == want_runs
            assert weights == want_sweep and sum(weights) == rep.classified
            assert max(weights) < 0.06 * sum(weights)
            for procs in range(2, 9):
                assert list_schedule(weights, procs) <= 1.01 * sum(weights) / procs

    def test_even_blocks_at_a_huge_block_count_return_at_once(self, monkeypatch):
        # a worker count far past the block count changes neither the task
        # list nor the work: one run table per difference group, two blocks
        # per run, and never more processes than blocks
        tables, lists = [], []
        real_runs, real_blocks = search._ap_runs, search._run_blocks
        monkeypatch.setattr(search, "_ap_runs", lambda *a: tables.append(a) or real_runs(*a))
        monkeypatch.setattr(search, "_run_blocks",
                            lambda fn, tasks, *a: lists.append(tasks) or real_blocks(fn, tasks, *a))
        forks = counting_fork(monkeypatch, cap=5)
        want = ap_pair_scan(1, 2).as_dict(elapsed_s=0.0)
        for children in (0, 5):  # 13 pairs pay for no fork; a break-even of 0, one per block
            if children:
                break_even_zero(monkeypatch)
            for workers in (10 ** 5, 10 ** 9):
                tables.clear()
                forks.clear()
                assert ap_pair_scan(1, 2, workers=workers).as_dict(elapsed_s=0.0) == want
                assert tables == [(1, (1,)), (1, (2,))]
                assert len(lists[-1]) == 6 == len(lists[0]) and lists[-1] == lists[0]
                assert len(forks) == children
        assert_no_children()

    def test_pair_blocks_are_the_run_shapes_at_any_worker_count(self, monkeypatch):
        # two blocks per progression shape (difference, length), one per
        # parity of the partner runs, in run-table order, and the same list
        # at every worker count; the stand-in runner runs the blocks in
        # process, so nothing forks
        forks = counting_fork(monkeypatch, cap=0)
        lists = []

        def run_in_process(fn, tasks, workers):
            lists.append(tasks)
            return [fn(t) for t in tasks]
        monkeypatch.setattr(search, "_run_blocks", run_in_process)
        for scan, span, max_diff, groups in (
                (ap_pair_scan, 34, 4, [(1,), (2,), (3,), (4,)]),
                (two_ap_general_scan, 26, 5, [(1, 2, 3, 4, 5)])):
            lists.clear()
            for workers in (1, 2, 10 ** 5):
                scan(span, max_diff, workers=workers)
            shapes = [(len(run), run[0]) for diffs in groups for run in ref_ap_runs(span, diffs)]
            tasks = lists[0]
            assert len(tasks) == 2 * len(shapes) == {34: 148, 26: 126}[span]
            assert [(runs[r][0], runs[r][3], half) for _, _, runs, r, half in tasks] == [
                (*shape, half) for shape in shapes for half in (0, 1)]
            assert lists[0] == lists[1] == lists[2]
        assert forks == []

    def test_blocks_go_out_and_come_back_in_task_order(self):
        # each process draws its blocks in task order (its own counter
        # numbers its draws), and the results come back in task order
        draws = count()
        tasks = [5, 9, 1, 7, 3, 8, 2, 6, 4, 0]
        for workers in (2, 3):
            out = search._run_blocks(lambda t: (os.getpid(), next(draws), t), tasks, workers)
            assert [t for _, _, t in out] == tasks
            taken = {}
            for pid, draw, t in sorted(out, key=lambda rec: rec[1]):
                taken.setdefault(pid, []).append(tasks.index(t))
            assert all(ts == sorted(ts) for ts in taken.values())
            assert len(taken) <= workers
        assert_no_children()

    @pytest.mark.parametrize("scan", [lambda w: min_size_scan(22, workers=w),
                                      lambda w: partition3_feasible(25, True, w),
                                      lambda w: partition3_feasible(26, True, w)],
                             ids=["minsize22", "partition3_25", "partition3_26"])
    def test_levels_go_out_heaviest_first(self, scan, monkeypatch):
        # the levels (D, j) by falling diameter, then falling size; dealt in
        # that order to 2..4 processes, each taking the next level when it
        # is free, the busiest process does at most 1% more leaves than
        # when the levels are dealt by falling leaf count
        lists = []

        def run_in_process(fn, tasks, workers):
            out = [fn(t) for t in tasks]
            lists.append((tasks, [leaves for leaves, _ in out]))
            return out
        monkeypatch.setattr(search, "_run_blocks", run_in_process)
        scan(2)
        [(tasks, leaves)] = lists
        assert tasks == sorted(tasks, key=lambda t: (-t[0], -t[1]))
        assert search._normal_tasks(range(1, 4), range(3)) == [
            (3, 2), (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)]
        for procs in range(2, 5):
            assert list_schedule(leaves, procs) <= \
                1.01 * list_schedule(sorted(leaves, reverse=True), procs)

    def test_every_report_is_built_in_scan(self, monkeypatch):
        # each engine makes its SearchReport in _scan, once per task list (per
        # level for largest, whose report adds its levels' leaves and time)
        made, inside = [], []
        real_scan, real_report = search._scan, search.SearchReport

        def scan(*args):
            inside.append(1)
            try:
                made.append(real_scan(*args))
            finally:
                inside.pop()
            return made[-1]

        def report(*args, **kwargs):
            assert inside, "a SearchReport made outside _scan"
            return real_report(*args, **kwargs)
        monkeypatch.setattr(search, "_scan", scan)
        monkeypatch.setattr(search, "SearchReport", report)
        for workers in (1, 2):
            for engine in (lambda: min_size_scan(12, workers=workers),
                           lambda: ap_pair_scan(20, 3, workers=workers),
                           lambda: two_ap_general_scan(16, 3, workers=workers)):
                made.clear()
                assert engine() is made[-1] and len(made) == 1
            made.clear()
            _, rep = largest_subset_scan(16, workers=workers)
            assert len(made) == 16 - 9 + 1  # discard levels 0..7, N = 9
            assert rep == made[-1]._replace(classified=sum(m.classified for m in made),
                                            elapsed=sum(m.elapsed for m in made))
            made.clear()
            with pytest.raises(BudgetExceededError) as budget:
                largest_subset_scan(30, max_discard=1, workers=workers)
            assert budget.value.report.witnesses == [] and len(made) == 2
            assert budget.value.report.examined == made[-1].examined == 1 + 28
            made.clear()
            p3 = partition3_feasible(24, exhaustive_small=True, workers=workers)
            [catalogue] = made
            assert catalogue.search == "partition3" and p3.classified > catalogue.classified


def list_schedule(loads, procs):
    # the busiest of `procs` processes when each takes the next load, in
    # order, as soon as it is free
    busy = [0] * procs
    for load in loads:
        busy[busy.index(min(busy))] += load
    return max(busy)


def counting_fork(monkeypatch, cap=4):
    # os.fork that records each call and refuses beyond `cap`, so that a
    # broken cap on the process count cannot start many real processes
    forks, real = [], os.fork

    def fork():
        forks.append(1)
        if len(forks) > cap:
            raise OSError("more forks than the test allows")
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    # a hung runner fails the test after 60 s instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError("the block runner did not finish")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


class TestForkJoinFailures:
    # two blocks at two workers: the caller's block waits until the child
    # has taken the other one, so each process runs exactly one of them
    def run_pair(self, in_child):
        caller = os.getpid()
        ready_r, ready_w = os.pipe()

        def fn(task):
            if os.getpid() == caller:
                if not select.select([ready_r], [], [], 30)[0]:
                    raise TimeoutError("the child never took a block")
                return task
            os.write(ready_w, b"x")
            return in_child(task)
        try:
            return search._run_blocks(fn, [0, 1], 2)
        finally:
            os.close(ready_r)
            os.close(ready_w)

    def test_a_block_that_raises_in_a_child_raises_in_the_caller(self, deadline):
        def boom(task):
            raise ValueError(f"block {task}")
        with pytest.raises(ValueError, match="block "):
            self.run_pair(boom)
        assert_no_children()

    def test_package_errors_cross_from_a_child_whole(self, deadline):
        # a child's exception comes back by pickle; these three take more
        # than the message in __init__
        with pytest.raises(BudgetExceededError) as budget:
            largest_subset_scan(30, max_discard=2)
        with pytest.raises(ConstraintViolationError) as spec:
            partition3(Partition3Spec(21, IntSet([71, 72]), IntSet([71, 74, 75, 76, 79])))
        with pytest.raises(ParseError) as parse:
            parse_set_literal("{1, 2, x}")
        for err, attr in ((budget.value, "report"), (spec.value, "violations"),
                          (parse.value, "offset")):
            copy = pickle.loads(pickle.dumps(err))
            assert type(copy) is type(err) and str(copy) == str(err)
            assert getattr(copy, attr) == getattr(err, attr)

            def raise_it(task):
                raise err
            with pytest.raises(type(err)) as got:
                self.run_pair(raise_it)
            assert str(got.value) == str(err)
            assert getattr(got.value, attr) == getattr(err, attr)
        assert_no_children()

    def test_a_child_that_dies_makes_the_caller_raise(self, deadline):
        caller = os.getpid()

        def die(task):
            if os.getpid() != caller:  # never the caller itself
                os.kill(os.getpid(), signal.SIGKILL)
            return task
        with pytest.raises(RuntimeError, match="exited without its results"):
            self.run_pair(die)
        assert_no_children()

    def test_more_blocks_than_the_pipe_holds(self, deadline):
        tasks = list(range(20000))  # 80000 bytes of indices, more than a 64 KiB pipe
        assert search._run_blocks(abs, [-t for t in tasks], 2) == tasks
        assert_no_children()

    def test_the_caller_raises_and_reaps(self, deadline):
        caller = os.getpid()

        def fn(task):
            if os.getpid() == caller:
                raise KeyError(task)
            return task
        with pytest.raises(KeyError):
            search._run_blocks(fn, list(range(50)), 2)
        assert_no_children()
