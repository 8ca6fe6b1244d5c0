"""Structural checks: AP recognition, gap conditions, extension sums."""

import random
import time

import pytest

from mstd import (
    ArithProg,
    EmptySetError,
    IntSet,
    InvalidParameterError,
    NOT_SUM_DOMINANT,
    UNIVERSE_CAP,
    UniverseOverflowError,
    elements_of,
    infer_block_gap,
    is_arithmetic_progression,
    ms_condition1,
    ms_condition2,
    new_sums_on_extend,
)
from tests._oracles import (mask_cases, naive_cards, naive_is_sum_dominant, naive_sumset,
                            ref_infer_block_gap, ref_is_arithmetic_progression,
                            ref_ms_condition1, ref_ms_condition2)


class TestArithProg:
    def test_expand_golden(self):
        assert ArithProg(3, 2, 5).expand().elements == (3, 5, 7, 9, 11)
        assert ArithProg(0, 1, 1).expand().elements == (0,)
        assert ArithProg(7, 4, 5).expand().elements == (7, 11, 15, 19, 23)
        assert ArithProg(0, 2**23, 2).expand().elements == (0, 2**23)
        assert ArithProg(5, 3, 37).expand().elements == tuple(5 + 3 * i for i in range(37))

    def test_last(self):
        assert ArithProg(3, 2, 5).last == 11
        assert ArithProg(9, 5, 1).last == 9

    @pytest.mark.parametrize("start,diff,length", [
        (-1, 1, 3),
        (0, 0, 3),
        (0, -2, 3),
        (0, 1, 0),
        (0, 1, -4),
    ])
    def test_validation(self, start, diff, length):
        with pytest.raises(InvalidParameterError):
            ArithProg(start, diff, length)

    def test_overflow_before_materializing(self):
        # must fail fast, not build a billion-element list
        with pytest.raises(UniverseOverflowError):
            ArithProg(0, 1, 10**9).expand()
        with pytest.raises(UniverseOverflowError):
            ArithProg(UNIVERSE_CAP - 1, 2, 2).expand()


class TestRecognizer:
    def test_recognizes(self):
        assert is_arithmetic_progression(IntSet([3, 5, 7, 9, 11])) == ArithProg(3, 2, 5)
        assert is_arithmetic_progression(IntSet([4, 10])) == ArithProg(4, 6, 2)
        assert is_arithmetic_progression(IntSet([5])) == ArithProg(5, 1, 1)

    def test_rejects(self):
        assert is_arithmetic_progression(IntSet([0, 1, 3])) is None
        assert is_arithmetic_progression(IntSet([0, 2, 3, 4])) is None

    def test_empty(self):
        with pytest.raises(EmptySetError):
            is_arithmetic_progression(IntSet())

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            p = ArithProg(rng.randint(0, 50), rng.randint(1, 9),
                          rng.randint(1, 20))
            got = is_arithmetic_progression(p.expand())
            if p.length == 1:
                assert got == ArithProg(p.start, 1, 1)
            elif p.length == 2:
                assert got == ArithProg(p.start, p.diff, 2)
            else:
                assert got == p

    def test_matches_the_gap_tuple(self):
        rng = random.Random(25)
        cases = [[x] for x in (0, 1, 63, 64, 2**23)]
        cases += [[x, y] for x, y in ((0, 1), (3, 100), (0, 2**23), (64, 65))]
        for _ in range(400):
            cases.append(rng.sample(range(80), rng.randint(1, 10)))
            p = ArithProg(rng.randint(0, 60), rng.randint(1, 9), rng.randint(3, 25))
            terms = list(p.expand())
            h = rng.randint(2, 5)  # dilates of the progression and of a random set
            cases += [[h * e for e in terms], [h * e + 1 for e in cases[-1]]]
            # near-progressions: a term moved, dropped or added
            near = terms.copy()
            near[rng.randrange(1, len(near) - 1)] += rng.choice((-1, 1))
            cases.append(near)
            cases.append(terms[:1] + terms[2:])
            cases.append(terms[:-1] + [p.last + p.diff + 1])
            cases.append(terms + [p.last + rng.randint(1, 2 * p.diff)])
        for elements in cases:
            got = is_arithmetic_progression(IntSet(elements))
            want = ref_is_arithmetic_progression(tuple(sorted(set(elements))))
            assert (got if got is None else tuple(got)) == want, elements


class TestCondition1:
    def test_applies(self):
        v = ms_condition1(IntSet([0, 1, 2, 4]))
        assert v.applies and v.guarantee == NOT_SUM_DOMINANT

    def test_does_not_apply(self):
        v = ms_condition1(IntSet([0, 1, 2, 4, 7]))
        assert not v.applies and v.guarantee is None

    def test_singleton_vacuous(self):
        assert ms_condition1(IntSet([9])).applies

    def test_empty(self):
        with pytest.raises(EmptySetError):
            ms_condition1(IntSet())

    def test_sound_exhaustive(self):
        # every applying subset of {0..14} must be non-sum-dominant
        applied = 0
        for mask in range(1, 1 << 15):
            elems = elements_of(mask)
            v = ms_condition1(IntSet(elems))
            gaps = [elems[i + 1] - elems[i] for i in range(len(elems) - 1)]
            assert v.applies == all(g <= 2 for g in gaps)
            if v.applies:
                applied += 1
                assert not naive_is_sum_dominant(elems)
        assert applied > 1000

    def test_mask_check_matches_the_gap_tuple(self):
        # gaps of 1..3 mostly, so both verdicts come up, from a random
        # origin, a few ending on the top of the universe; and singletons
        rng = random.Random(61)
        verdicts = set()
        for i in range(2000):
            top = rng.choice((0, 1, 2, 3, 4, 40, 1000))
            gaps = [rng.choice((1, 1, 2, 2, 2, 3)) for _ in range(rng.randint(0, top))]
            origin = rng.choice((0, 1, rng.randrange(10**5)))
            if i % 100 == 0:
                origin = UNIVERSE_CAP - 1 - sum(gaps)
            elems = [origin]
            for g in gaps:
                elems.append(elems[-1] + g)
            want = ref_ms_condition1(elems)
            assert ms_condition1(IntSet(elems)).applies == want, elems
            verdicts.add(want)
        assert verdicts == {True, False}
        for x in (0, 1, 2, 63, 64, 10**6, UNIVERSE_CAP - 1):
            assert ms_condition1(IntSet([x])).applies


class TestCondition2:
    def test_applies_golden(self):
        # gaps 1,1,3,1,1 with m=3: outer unit runs have length 2 = m-1
        v = ms_condition2(IntSet([0, 1, 2, 5, 6, 7]), 3)
        assert v.applies and v.guarantee == NOT_SUM_DOMINANT

    def test_short_outer_run(self):
        # gaps 1,3,1: outer unit runs too short for m=3
        assert not ms_condition2(IntSet([0, 1, 4, 5]), 3).applies

    def test_pure_block_gaps_vacuous(self):
        # an AP with difference m has no unit runs at all
        assert ms_condition2(IntSet([0, 4, 8, 12]), 4).applies

    def test_foreign_gap(self):
        assert not ms_condition2(IntSet([0, 1, 2, 7, 8, 9]), 3).applies

    def test_bad_m(self):
        with pytest.raises(InvalidParameterError):
            ms_condition2(IntSet([0, 1]), 1)
        with pytest.raises(InvalidParameterError):
            ms_condition2(IntSet([0, 1]), 0)

    def test_empty(self):
        with pytest.raises(EmptySetError):
            ms_condition2(IntSet(), 3)

    def test_matches_the_gap_tuple(self):
        # the edge masks against the gap tuple's unit runs, at m = 2, 3, the
        # set's own block gap and one more, on random, residue-class and
        # block-structured sets
        verdicts = set()
        for i, elems in enumerate(mask_cases(59, 20000)):
            a = IntSet(elems)
            for m in {2, 3, ref_infer_block_gap(elems) or 2, 2 + i % 11}:
                want = ref_ms_condition2(elems, m)
                assert ms_condition2(a, m).applies == want, (elems, m)
                verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("elems,applies", [
        ([0, 1, 5], False), ([3, 4, 5, 6], False), ([9], True), ([0, 2**23], False),
        (range(10**6), False)])
    def test_huge_m_settles_at_once(self, elems, applies):
        # legal input: m is only compared with the set's own gaps, never
        # shifted by, so 2**60 allocates nothing; only a set with no gap
        # other than 1 can apply, and then only by having no unit run
        a = IntSet(elems)
        start = time.perf_counter()
        for m in (2**60, 2**60 + 1, 10**400):
            assert ms_condition2(a, m).applies is applies
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sound_exhaustive(self, m):
        applied = 0
        for mask in range(1, 1 << 13):
            elems = elements_of(mask)
            if ms_condition2(IntSet(elems), m).applies:
                applied += 1
                assert not naive_is_sum_dominant(elems), elems
        assert applied > 50


class TestInferBlockGap:
    def test_unique_block_gap(self):
        assert infer_block_gap(IntSet([0, 1, 2, 5, 6, 7])) == 3
        assert infer_block_gap(IntSet([0, 4, 8])) == 4

    def test_none_cases(self):
        assert infer_block_gap(IntSet([0, 1, 2, 3])) is None  # all unit
        assert infer_block_gap(IntSet([0, 2, 5])) is None     # two candidates
        assert infer_block_gap(IntSet([6])) is None           # no gaps

    def test_empty(self):
        with pytest.raises(EmptySetError):
            infer_block_gap(IntSet())

    def test_matches_the_gap_tuple(self):
        # the run ends but the last moved onto the run starts but the first,
        # against the set of gaps other than 1
        gaps = set()
        for elems in mask_cases(67, 20000):
            want = ref_infer_block_gap(elems)
            assert infer_block_gap(IntSet(elems)) == want, elems
            gaps.add(want)
        assert None in gaps and gaps >= set(range(2, 13))


class TestExtend:
    def test_golden(self):
        assert new_sums_on_extend(IntSet(range(6)), 6) == 2
        assert new_sums_on_extend(IntSet([0, 1, 2, 3, 10, 11]), 4) == 3
        assert new_sums_on_extend(IntSet([0]), 1) == 2

    def test_errors(self):
        with pytest.raises(EmptySetError):
            new_sums_on_extend(IntSet(), 3)
        with pytest.raises(InvalidParameterError):
            new_sums_on_extend(IntSet([1, 2]), 2)
        with pytest.raises(InvalidParameterError):
            new_sums_on_extend(IntSet([1]), -1)
        with pytest.raises(UniverseOverflowError):
            new_sums_on_extend(IntSet([1]), UNIVERSE_CAP)

    def test_matches_naive(self):
        rng = random.Random(29)
        for _ in range(300):
            elems = sorted(rng.sample(range(40), rng.randint(1, 10)))
            x = rng.choice([v for v in range(45) if v not in elems])
            grown = naive_sumset(elems + [x])
            assert new_sums_on_extend(IntSet(elems), x) \
                == len(grown) - len(naive_sumset(elems))

    def test_ap_tail_extension_costs_two(self):
        # growing {0..n-1} by n always adds n+(n-1) and n+n only
        for n in range(1, 30):
            assert new_sums_on_extend(IntSet(range(n)), n) == 2
