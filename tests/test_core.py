"""Set carrier, bitmask kernel, classification, notation round trips."""

import inspect
import math
import operator
import random
import re
import subprocess
import sys
import time
import timeit
from importlib import import_module
from itertools import count
from types import ModuleType

import pytest

import mstd
from mstd import (
    Classification,
    DegenerateSetError,
    EmptySetError,
    GapNotation,
    IntSet,
    InvalidParameterError,
    Kind,
    ParseError,
    UNIVERSE_CAP,
    UniverseOverflowError,
    bits_of,
    classify,
    diff_bits,
    diffset,
    elements_of,
    format_gap_notation,
    format_set_literal,
    gaps_of,
    k_set,
    normalize_affine,
    parse_gap_notation,
    parse_set_literal,
    sum_diff_cards,
    sumset,
    sumset_bits,
    symmetry_center,
)
from mstd import core
from mstd.core import (_BLOCK_GAP, _FEW_SPANS, _PACK_MIN_CARD, _SPARSE_RATIO, _blocks,
                       _class_runs, _dilate, _reflect, _run_kernel, _runs, _smear, _span_count,
                       _span_mags, _span_mask, _span_sums, _stride, _strides, _sums_and_mags)
from tests._oracles import (
    mask_cases,
    naive_cards,
    naive_diffset,
    naive_sumset,
    ref_bits_of,
    ref_cards,
    ref_diff_bits,
    ref_dilate,
    ref_elements_of,
    ref_normalize_affine,
    ref_parse_gap_notation,
    ref_parse_set_literal,
    ref_product_bits,
    ref_reflect,
    ref_stride,
    ref_sumset_bits,
    ref_symmetry_center,
)


def runs_of(bits):
    # the maximal runs of consecutive elements, counted by their starts
    return (bits & ~(bits << 1)).bit_count()


def thin_top(bits, seed, span=256):
    # bits with about half of its elements among its top span positions
    # dropped at random, the largest kept: an end with no period to read
    rng, top = random.Random(seed), bits.bit_length() - 1
    for x in range(top - span + 1, top):
        if bits >> x & 1 and rng.random() < 0.5:
            bits ^= 1 << x
    return bits


def path_of(bits):
    # the interval path's class count g for bits, or None for the run kernel
    edges = bits ^ bits << 1
    classes = _class_runs(bits, edges, edges.bit_count())
    return classes and len(classes)


class TestIntSet:
    def test_dedup_and_order(self):
        a = IntSet([5, 1, 3, 1, 5])
        assert a.elements == (1, 3, 5)
        assert len(a) == 3
        assert list(a) == [1, 3, 5]

    def test_membership(self):
        a = IntSet([0, 2, 9])
        assert 2 in a and 9 in a and 0 in a
        assert 1 not in a
        assert -3 not in a
        assert "2" not in a
        assert 10 not in a and 10 ** 30 not in a

    def test_from_bits_stops_at_the_cap(self):
        # a mask is a set while its top bit lies below the cap
        assert IntSet.from_bits(1 << UNIVERSE_CAP - 1).max == UNIVERSE_CAP - 1
        for bits in (1 << UNIVERSE_CAP, (1 << UNIVERSE_CAP + 5) - 1):
            with pytest.raises(UniverseOverflowError,
                               match="^bitmask extends beyond the universe cap$"):
                IntSet.from_bits(bits)

    def test_bits_round_trip(self):
        a = IntSet([0, 4, 7])
        assert a.bits == 0b10010001
        assert IntSet.from_bits(a.bits) == a
        assert elements_of(bits_of([7, 0, 4])) == (0, 4, 7)

    def test_operators(self):
        a = IntSet([1, 2, 3])
        b = IntSet([3, 4])
        assert (a | b).elements == (1, 2, 3, 4)
        assert (a & b).elements == (3,)
        assert (a - b).elements == (1, 2)
        assert (a ^ b).elements == (1, 2, 4)
        assert not a.isdisjoint(b)
        assert a.isdisjoint(IntSet([9]))

    @pytest.mark.parametrize("other", [3, {1}, frozenset(), [1], None])
    def test_operators_want_an_intset(self, other):
        # like ==, the operators hand a foreign operand back to Python, which
        # raises TypeError; isdisjoint is a method, so it raises a package error
        a = IntSet([1, 2])
        for op in (operator.or_, operator.and_, operator.sub, operator.xor):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        with pytest.raises(InvalidParameterError, match="isdisjoint wants an IntSet, not "):
            a.isdisjoint(other)
        assert (a == other) is False

    def test_shift(self):
        assert IntSet([3, 5]).shift(4).elements == (7, 9)
        assert IntSet([3, 5]).shift(-3).elements == (0, 2)
        with pytest.raises(InvalidParameterError):
            IntSet([3, 5]).shift(-4)
        # checked before the mask is shifted
        with pytest.raises(UniverseOverflowError):
            IntSet([3, 5]).shift(UNIVERSE_CAP - 5)
        with pytest.raises(UniverseOverflowError):
            IntSet([3, 5]).shift(4 * UNIVERSE_CAP)
        with pytest.raises(InvalidParameterError):
            IntSet([3, 5]).shift(-4 * UNIVERSE_CAP)
        assert IntSet([3, 5]).shift(UNIVERSE_CAP - 6).max == UNIVERSE_CAP - 1

    def test_min_max_diameter(self):
        a = IntSet([2, 9, 11])
        assert (a.min, a.max, a.diameter) == (2, 11, 9)
        empty = IntSet()
        for prop in ("min", "max", "diameter"):
            with pytest.raises(EmptySetError):
                getattr(empty, prop)

    def test_eq_hash(self):
        assert IntSet([1, 2]) == IntSet((2, 1))
        assert hash(IntSet([1, 2])) == hash(IntSet([2, 1]))
        assert IntSet([1]) != IntSet([2])
        assert len({IntSet([1, 2]), IntSet([2, 1])}) == 1

    def test_repr(self):
        assert repr(IntSet([1, 2])) == "IntSet({1, 2})"
        assert repr(IntSet([])) == "IntSet({})"
        many = range(0, 3000, 3)
        assert repr(IntSet(many)) == f"IntSet({{{', '.join(map(str, many))}}})"

    def test_rejects_bad_elements(self):
        with pytest.raises(InvalidParameterError):
            IntSet([-1])
        with pytest.raises(InvalidParameterError):
            IntSet([1.5])
        with pytest.raises(InvalidParameterError):
            IntSet([True])
        with pytest.raises(InvalidParameterError):
            IntSet([1, "a"])

    @pytest.mark.parametrize("call, message", [
        (lambda: bits_of([1.5]), "set element 1.5 is not an int"),
        (lambda: bits_of(["a"]), "set element 'a' is not an int"),
        (lambda: bits_of([True, 3]), "set element True is not an int"),
        (lambda: bits_of(iter([2, 3.0])), "set element 3.0 is not an int"),
        (lambda: bits_of([*range(_PACK_MIN_CARD), None]), "set element None is not an int"),
        (lambda: IntSet([3, False]), "set element False is not an int"),
        (lambda: sumset_bits(2.0), "bitmask must be an int, not float"),
        (lambda: diff_bits(2.0), "bitmask must be an int, not float"),
        (lambda: sum_diff_cards(None), "bitmask must be an int, not NoneType"),
        (lambda: sum_diff_cards(5.0), "bitmask must be an int, not float"),
        (lambda: elements_of(1.5), "bitmask must be an int, not float"),
        (lambda: IntSet.from_bits(5.0), "bitmask must be an int, not float"),
        (lambda: IntSet.from_bits(True), "bitmask must be an int, not bool"),
        (lambda: IntSet([1]).shift(1.5), "shift offset must be an int, not float"),
        (lambda: IntSet().shift(True), "shift offset must be an int, not bool"),
        (lambda: GapNotation("a", (1,)), "origin must be an int, not str"),
        (lambda: GapNotation(0.5, (1,)), "origin must be an int, not float"),
        (lambda: GapNotation(0, ("x",)), "gap must be an int, not str"),
        (lambda: IntSet(5), "set elements must be an iterable, not int"),
        (lambda: bits_of(None), "set elements must be an iterable, not NoneType"),
        (lambda: GapNotation(0, 5), "gaps must be an iterable, not int"),
    ])
    def test_non_int_inputs_raise_invalid_parameter(self, call, message):
        # inside the mstd.Error family, never a TypeError or AttributeError
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            call()

    def test_gaps_are_kept_as_a_tuple(self):
        # any iterable of gaps is stored as a tuple, so equal notations hash equal
        g = GapNotation(0, [1, 2])
        assert g.gaps == (1, 2) and type(g.gaps) is tuple
        assert g == GapNotation(0, (1, 2)) == GapNotation(0, iter([1, 2]))
        assert hash(GapNotation(0, [1])) == hash(GapNotation(0, (1,)))
        assert g._replace(gaps=[3]).gaps == (3,)
        assert g.to_intset() == IntSet([0, 1, 3])

    def test_ranges_pack_like_their_elements(self):
        # a range is packed from its ends, step and length, with the masks
        # and errors of its elements as a tuple: empty, negative, ascending
        # and descending, and across the cap
        def packed(elements):
            try:
                return bits_of(elements)
            except mstd.Error as error:
                return type(error), str(error)
        rng = random.Random(29)
        seen = set()
        for i in range(1500):  # every 20th across the cap, kept short: a tuple packs slowly there
            base, width = (UNIVERSE_CAP - 30, 60) if i % 20 == 0 else (rng.choice((0, 0, -40)), 400)
            step = rng.choice((1, 1, 2, 3, 7, 64, 1000)) * rng.choice((1, -1))
            r = range(base + rng.randrange(-20, width), base + rng.randrange(-20, width), step)
            got = packed(r)
            assert got == packed(tuple(r)), r
            seen.add("error" if type(got) is tuple else min(got.bit_count(), 2))
        assert seen == {0, 1, 2, "error"}
        thirds = int("1" + "001" * (UNIVERSE_CAP // 3), 2)  # 0, 3, ..., 2**24 - 1
        assert IntSet(range(UNIVERSE_CAP - 1, -1, -3)).bits == thirds
        with pytest.raises(UniverseOverflowError,
                           match=f"^element {UNIVERSE_CAP + 2} is at or beyond the universe cap"):
            IntSet(range(UNIVERSE_CAP - 7, UNIVERSE_CAP + 10 ** 30, 3))
        with pytest.raises(InvalidParameterError, match="^set element -3 is negative$"):
            IntSet(range(10 ** 6, -4, -1))

    def test_universe_cap(self):
        IntSet([UNIVERSE_CAP - 1])
        with pytest.raises(UniverseOverflowError):
            IntSet([UNIVERSE_CAP])
        with pytest.raises(UniverseOverflowError, match=f"element {UNIVERSE_CAP} "):
            IntSet([UNIVERSE_CAP + 9, 1, UNIVERSE_CAP])


class TestArithmetic:
    def test_sumset_golden(self):
        s = sumset(IntSet([0, 1, 3]))
        assert s.elements == (0, 1, 2, 3, 4, 6)

    def test_diffset_golden(self):
        mags, card = diffset(IntSet([0, 1, 3]))
        assert mags.elements == (0, 1, 2, 3)
        assert card == 7

    def test_diffset_singleton(self):
        mags, card = diffset(IntSet([5]))
        assert mags.elements == (0,)
        assert card == 1

    def test_sums_past_the_cap(self):
        # A+A of a set with max >= 2**23 passes the cap as a set, but is
        # still counted; the magnitudes never pass max(A)
        for top in (2**23, UNIVERSE_CAP - 1):
            a = IntSet([0, 1, top])
            with pytest.raises(UniverseOverflowError):
                sumset(a)
            assert diffset(a) == (IntSet([0, 1, top - 1, top]), 7)
            assert classify(a) == (Kind.DIFFERENCE_DOMINANT, 6, 7)
        assert sumset(IntSet([0, 2**23 - 1])).max == UNIVERSE_CAP - 2

    @pytest.mark.parametrize("build", [
        lambda: random.Random(23).getrandbits(2**23) | 1 << 2**23,  # the cover: ~0.3 s
        lambda: int("1" + "01" * 2**22, 2),  # the evens to 2**23, the classes mod 2: ~0.1 s
    ], ids=["half-full", "evens"])
    def test_sumset_checks_the_cap_first(self, build):
        # the same error as a sumset that reached the cap, before any kernel runs
        a = IntSet.from_bits(build())
        assert a.max == 2**23
        t0 = time.perf_counter()
        with pytest.raises(UniverseOverflowError,
                           match="^bitmask extends beyond the universe cap$"):
            sumset(a)
        assert time.perf_counter() - t0 < 0.1

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            sumset(IntSet())
        with pytest.raises(EmptySetError):
            diffset(IntSet())
        with pytest.raises(EmptySetError):
            classify(IntSet())

    def test_empty_and_negative_masks(self):
        # the empty mask has empty sum and magnitude masks but no cardinality
        # pair (|A-A| would read -1); a negative int is no mask at all
        assert sumset_bits(0) == diff_bits(0) == 0 and elements_of(0) == ()
        with pytest.raises(EmptySetError):
            sum_diff_cards(0)
        with pytest.raises(EmptySetError):
            sum_diff_cards(0, ())
        for bits in (-1, -5, 1 - (1 << 40000)):  # the last one wide enough for blocks
            for kernel in (elements_of, sumset_bits, diff_bits, sum_diff_cards,
                           IntSet.from_bits):
                with pytest.raises(InvalidParameterError, match="negative"):
                    kernel(bits)

    def test_classify_sum_dominant(self):
        c = classify(IntSet([0, 2, 3, 4, 7, 11, 12, 14]))
        assert c == Classification(Kind.SUM_DOMINANT, 26, 25)
        assert c.excess == 1

    def test_classify_difference_dominant(self):
        c = classify(IntSet([0, 1, 3]))
        assert c.kind is Kind.DIFFERENCE_DOMINANT
        assert (c.sum_card, c.diff_card, c.excess) == (6, 7, -1)

    def test_classify_balanced(self):
        c = classify(IntSet([3, 5, 7, 9, 11]))
        assert c.kind is Kind.BALANCED
        assert c.excess == 0

    def test_kernel_matches_naive_exhaustive(self):
        # every nonempty subset of {0..10}
        for mask in range(1, 1 << 11):
            elems = elements_of(mask)
            sc, dc = sum_diff_cards(mask, elems)
            nsc, ndc = naive_cards(elems)
            assert (sc, dc) == (nsc, ndc), elems

    def test_kernel_matches_naive_random(self):
        rng = random.Random(20260817)
        for _ in range(2000):
            mask = rng.getrandbits(64) | 1
            elems = elements_of(mask)
            assert sum_diff_cards(mask) == naive_cards(elems)

    def test_sumset_diffset_against_naive(self):
        rng = random.Random(7)
        for _ in range(200):
            elems = sorted(rng.sample(range(100), rng.randint(1, 12)))
            a = IntSet(elems)
            assert set(sumset(a).elements) == naive_sumset(elems)
            mags = {abs(d) for d in naive_diffset(elems)}
            assert set(diffset(a)[0].elements) == mags


class TestSymmetry:
    def test_center_detected(self):
        assert symmetry_center(IntSet([3, 5, 7, 9, 11])) == 14
        assert symmetry_center(IntSet([0, 1, 3, 4])) == 4
        assert symmetry_center(IntSet([5])) == 10

    def test_no_center(self):
        assert symmetry_center(IntSet([0, 1, 3])) is None
        assert symmetry_center(IntSet([0, 2, 3, 4, 7, 11, 12, 14])) is None

    def test_symmetric_implies_balanced_small(self):
        # all symmetric subsets of {0..12}
        for mask in range(1, 1 << 13):
            elems = elements_of(mask)
            c = elems[0] + elems[-1]
            if all((c - e) in set(elems) for e in elems):
                assert symmetry_center(IntSet(elems)) == c
                assert classify(IntSet(elems)).kind is Kind.BALANCED
            else:
                assert symmetry_center(IntSet(elems)) is None

    def test_million_elements(self):
        # linear in the mask; a membership test per element made this quadratic
        n = 10 ** 6
        assert symmetry_center(IntSet(range(5, n + 5))) == n + 9
        assert symmetry_center(IntSet([*range(n), n + 1])) is None

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            symmetry_center(IntSet())

    def test_matches_the_element_oracle(self):
        # the mask compared with its reflection, against the mirror of the
        # element set, on random, residue-class and block-structured sets
        centers = set()
        for elems in mask_cases(41, 20000):
            want = ref_symmetry_center(elems)
            assert symmetry_center(IntSet(elems)) == want, elems
            centers.add(want is None)
        assert centers == {True, False}


class TestNormalize:
    def test_golden(self):
        assert normalize_affine(IntSet([6, 10, 14])).elements == (0, 1, 2)
        assert normalize_affine(IntSet([0, 3])).elements == (0, 1)
        assert normalize_affine(IntSet([5, 6])).elements == (0, 1)

    def test_fixed_point(self):
        a = IntSet([0, 1, 5])
        assert normalize_affine(a) == a

    def test_preserves_classification(self):
        rng = random.Random(11)
        for _ in range(300):
            elems = sorted(rng.sample(range(60), rng.randint(2, 10)))
            g = rng.randint(1, 4)
            t = rng.randint(0, 20)
            scaled = IntSet(e * g + t for e in elems)
            c1 = classify(scaled)
            c2 = classify(normalize_affine(scaled))
            assert c1.kind is c2.kind
            assert c1.excess == c2.excess

    def test_a_round_that_keeps_the_gcd_raises(self, monkeypatch):
        # a stride that reads each class one digit off (a mutant of the
        # offset) leaves a multiple of g over, which no round can lower
        def stride(bits, g, r=0):
            digits = bin(bits)[2:]
            return int(digits[(len(digits) - r) % g::g] or "0", 2)
        monkeypatch.setattr(core, "_stride", stride)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="left the gap gcd at"):
            normalize_affine(IntSet([0, 2, 4, 6, 9]))
        assert time.perf_counter() - start < 1

    def test_matches_the_element_oracle(self):
        # the gcd refined on masks, against the gcd of the moved elements, on
        # random, residue-class and block-structured sets of two or more
        gcds = set()
        for elems in mask_cases(43, 20000):
            if len(elems) > 1:
                want = ref_normalize_affine(elems)
                assert normalize_affine(IntSet(elems)).elements == want, elems
                gcds.add((elems[-1] - elems[0]) // want[-1])
        assert gcds >= set(range(1, 12))

    def test_degenerate(self):
        with pytest.raises(DegenerateSetError):
            normalize_affine(IntSet([7]))
        with pytest.raises(EmptySetError):
            normalize_affine(IntSet())


class TestMaskPrimitives:
    def test_match_element_loops(self):
        # reflect, every residue class of every stride g <= 11, and dilate
        for elems in mask_cases(47, 1500):
            bits = ref_bits_of(elems)
            assert _reflect(bits) == ref_bits_of(ref_reflect(elems)), elems
            for g in range(1, 12):
                assert _dilate(bits, g) == ref_bits_of(ref_dilate(elems, g)), (elems, g)
                for r in range(g):
                    want = ref_bits_of(ref_stride(elems, g, r))
                    assert _stride(bits, g, r) == want, (elems, g, r)

    def test_edges(self):
        # a class past max(A), and the empty mask, stride to 0; a singleton
        # reflects to {0}; stride undoes dilate
        assert _stride(0b1, 5, 3) == _stride(0, 4, 0) == _stride(0, 4, 1) == 0
        assert _reflect(1 << 40) == 1 and _reflect(0b1011000) == 0b1101
        assert _stride(_dilate(0b1101, 7), 7) == 0b1101


class TestGapNotation:
    def test_format_golden(self):
        assert format_gap_notation(IntSet([2, 3, 9, 10, 15])) == "(2 | 1, 6, 1, 5)"
        assert format_gap_notation(IntSet([7])) == "(7 |)"

    def test_parse_golden(self):
        g = parse_gap_notation("(2 | 1, 6, 1, 5)")
        assert g == GapNotation(2, (1, 6, 1, 5))
        assert g.to_intset().elements == (2, 3, 9, 10, 15)
        assert parse_gap_notation("(7 |)").to_intset().elements == (7,)
        assert parse_gap_notation("  ( 0 | 3 )  ").to_intset().elements == (0, 3)

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(500):
            elems = sorted(rng.sample(range(200), rng.randint(1, 15)))
            a = IntSet(elems)
            text = format_gap_notation(a)
            assert parse_gap_notation(text).to_intset() == a

    def test_gaps_of(self):
        assert gaps_of(IntSet([2, 3, 9, 10, 15])) == (1, 6, 1, 5)
        assert gaps_of(IntSet([4])) == ()
        with pytest.raises(EmptySetError):
            gaps_of(IntSet())

    def test_gap_notation_validates(self):
        with pytest.raises(InvalidParameterError):
            GapNotation(0, (1, 0, 2))
        with pytest.raises(InvalidParameterError):
            GapNotation(-3, (1,)).to_intset()

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("3 | 1)", 0),
        ("(x | 1)", 1),
        ("(3 | 0)", 5),
        ("(3 | -2)", 5),
        ("(3 | 1,)", 7),
        ("(3 | 1 2)", 7),
        ("(3 | 1", 6),
        ("(3 | 1) x", 8),
        ("(-3 | 1)", 1),
    ])
    def test_parse_errors_with_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_gap_notation(text)
        assert err.value.offset == offset


class TestSetLiteral:
    @pytest.mark.parametrize("text,expect", [
        ("{1, 2, 3}", (1, 2, 3)),
        ("{3,1,2}", (1, 2, 3)),
        ("1 2 3", (1, 2, 3)),
        ("1,2,3", (1, 2, 3)),
        ("7", (7,)),
        ("{1, 1, 2}", (1, 2)),
        ("{}", ()),
        ("  { 4 }  ", (4,)),
    ])
    def test_accepts(self, text, expect):
        assert parse_set_literal(text).elements == expect

    @pytest.mark.parametrize("text,offset", [
        ("{1, -4}", 4),
        ("-4", 0),
        ("abc", 0),
        ("1,,2", 2),
        ("{1", 0),
        ("1}", 1),
        ("", 0),
        ("   ", 0),
        ("{1,}", 3),
        ("{1} x", 4),
        ("{1 : 2}", 3),
    ])
    def test_rejects_with_offset(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_set_literal(text)
        assert err.value.offset == offset

    def test_format_literal(self):
        assert format_set_literal(IntSet([0, 1, 3])) == "{0, 1, 3}"
        assert format_set_literal(IntSet()) == "{}"

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = IntSet(rng.sample(range(80), rng.randint(0, 12)))
            assert parse_set_literal(format_set_literal(a)) == a


# the fuzz alphabet: both notations' punctuation, a letter, a digit that is
# not decimal (superscript two), a decimal digit that is not ASCII
# (Arabic-Indic three), and whitespace beyond ASCII (no-break space, em
# space, and the file separator, which str.isspace counts)
_NOTATION_CHARS = "0123456789,{}()|- \t\nx\u00b2\u0663\u00a0\u2003\x1c"


def _parse_outcome(parse, text):
    # the elements or the gap notation read, or the error's type, message
    # and offset
    try:
        out = parse(text)
    except Exception as exc:  # the scanners let int()'s ValueError through
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)
    return "read", getattr(out, "elements", out)


class TestNotationTokens:
    @pytest.mark.parametrize("parse,text,offset", [
        (parse_set_literal, "{" + "1" * 5000 + "}", 1),
        (parse_set_literal, "7, " + "9" * 4301, 3),
        (parse_gap_notation, "(0 | " + "1" * 5000 + ")", 5),
        (parse_gap_notation, "(" + "1" * 5000 + " |)", 1),
        (parse_gap_notation, "(0 | 2, -" + "1" * 5000 + ")", 8),
    ], ids=["literal", "bare-literal", "gap", "origin", "negative-gap"])
    def test_integer_too_long_to_read(self, parse, text, offset):
        # int() refuses more than 4300 digits; a ParseError, not ValueError
        with pytest.raises(ParseError, match=r"integer of \d+ digits is too long") as err:
            parse(text)
        assert err.value.offset == offset

    def test_long_readable_integers_keep_their_errors(self):
        with pytest.raises(UniverseOverflowError,
                           match="element 123456789 is at or beyond the universe cap 16777216"):
            parse_set_literal("{123456789}")
        with pytest.raises(ParseError, match=r"negative elements are not allowed \(offset 1\)"):
            parse_set_literal("{-" + "1" * 5000 + "}")
        with pytest.raises(ParseError, match=r"gap -2 is not positive \(offset 5\)"):
            parse_gap_notation("(0 | -2)")
        with pytest.raises(ParseError, match=r"expected integer, found '\u00b2' \(offset 4\)"):
            parse_set_literal("{1, \u00b2}")

    def test_matches_the_character_scanners(self):
        # 24000 mutants of valid texts of both notations, each read by both
        # parsers against the scanners they replaced: the same elements, or
        # the same error type, message and offset
        rng = random.Random(18)
        seeds = ["1 2 3", "1,2,3", "{}", "(7 |)", "  ( 0 | 3 )  ", "{16777215, 16777216}"]
        for _ in range(40):
            a = IntSet(rng.sample(range(300), rng.randint(1, 9)))
            seeds += [format_set_literal(a), format_gap_notation(a)]
        pairs = ((parse_set_literal, ref_parse_set_literal),
                 (parse_gap_notation, ref_parse_gap_notation))
        seen = {parse: set() for parse, _ in pairs}
        for _ in range(24000):
            text = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 4)):
                at, ch = rng.randint(0, len(text)), rng.choice(_NOTATION_CHARS)
                op = rng.randrange(3) if text else 0
                if op == 0:
                    text.insert(at, ch)
                elif op == 1:
                    del text[at - 1]
                else:
                    text[at - 1] = ch
            text = "".join(text)
            for parse, ref in pairs:
                got = _parse_outcome(parse, text)
                assert got == _parse_outcome(ref, text), text
                # the message with its numbers and quoted token blanked
                seen[parse].add(got[0] if got[0] == "read" else
                                re.sub(r"(?<=found |token )'.*'|-?\d+", "_", got[1]))
        # every message of both grammars comes up, and so do the reads
        both = {"read", "dangling ',' (offset _)", "expected integer, found _ (offset _)"}
        assert seen == {
            parse_set_literal: both | {
                "unbalanced '{' (offset _)", "unbalanced '}' (offset _)",
                "trailing input after '}' (offset _)", "no elements found (offset _)",
                "expected integer before ',' (offset _)", "unexpected token _ (offset _)",
                "negative elements are not allowed (offset _)",
                "element _ is at or beyond the universe cap _"},
            parse_gap_notation: both | {
                "expected '(' (offset _)", "origin must be nonnegative (offset _)",
                "expected '|' (offset _)", "expected ')' (offset _)",
                "expected gap before ',' (offset _)", "expected ',' between gaps (offset _)",
                "gap _ is not positive (offset _)", "trailing input after ')' (offset _)"},
        }


class TestLargeSetKernel:
    """Linear pack/unpack and the run kernel against the references."""

    def test_round_trips_at_the_edges(self):
        for elems in ((), (0,), (UNIVERSE_CAP - 1,), (0, UNIVERSE_CAP - 1)):
            bits = ref_bits_of(elems)
            assert elements_of(bits) == elems
            assert bits_of(elems) == bits
        # enough elements for the digit-buffer pack, up to the cap
        elems = tuple(range(0, UNIVERSE_CAP, UNIVERSE_CAP // 600)) + (UNIVERSE_CAP - 1,)
        assert len(elems) >= _PACK_MIN_CARD
        bits = bits_of(elems)
        assert bits == ref_bits_of(elems)
        assert elements_of(bits) == elems

    def test_pack_matches_reference(self):
        rng = random.Random(61)
        for size in (1, 7, _PACK_MIN_CARD - 1, _PACK_MIN_CARD, 3000):
            for top in (size, 4 * size, 200_000):
                # duplicates and any order, from a list or a one-shot iterator
                elems = [rng.randrange(top) for _ in range(size)]
                want = ref_bits_of(elems)
                assert bits_of(elems) == want
                assert bits_of(iter(elems)) == want

    def test_pack_checks_the_range_first(self):
        # both pack paths, from a sequence and from a one-shot iterator; a mask
        # reaching 2**24 would otherwise be allocated unchecked
        for head in ((), tuple(range(1, _PACK_MIN_CARD + 1))):
            for bad, error, text in ((-1, InvalidParameterError, "negative"),
                                     (UNIVERSE_CAP, UniverseOverflowError, "universe cap")):
                for elems in ((*head, bad), iter((bad, *head))):
                    with pytest.raises(error, match=text):
                        bits_of(elems)
            # the error names the least element at or past the cap
            bad = (UNIVERSE_CAP + 9, 1, UNIVERSE_CAP)
            for elems in ((*head, *bad), iter((*bad, *head))):
                with pytest.raises(UniverseOverflowError, match=f"element {UNIVERSE_CAP} "):
                    bits_of(elems)

    def test_unpack_matches_reference(self):
        rng = random.Random(67)
        for width in (1, 9, 64, 1000, 50_000):
            for size in (1, width // 8 + 1, width // 2 + 1, width):
                bits = ref_bits_of(rng.sample(range(width), size))
                assert elements_of(bits) == ref_elements_of(bits)

    def test_sparse_unpack_matches_reference(self):
        rng = random.Random(79)
        cases = [(0, UNIVERSE_CAP - 1), (801, 802, 804, 805, 807), tuple(range(8000, 8008))]
        for width in (100, 5000, 1 << 16, 1 << 20, UNIVERSE_CAP):
            for size in (2, width // 200 + 1, width // _SPARSE_RATIO):
                cases.append(tuple(sorted(rng.sample(range(width), size))))
        # on both sides of the switch: popcount * ratio against bit length
        for card in (_SPARSE_RATIO - 1, _SPARSE_RATIO, _SPARSE_RATIO + 1):
            cases.append(tuple(range(0, card * _SPARSE_RATIO, _SPARSE_RATIO)))
        # every byte value once, bytes far enough apart for the sparse path
        cases.append(tuple(64 * 8 * v + i for v in range(256) for i in range(8) if v >> i & 1))
        for elems in cases:
            bits = bits_of(elems)
            assert elements_of(bits) == elems
            if bits.bit_length() <= 1 << 16:  # the peel is quadratic beyond
                assert elements_of(bits) == ref_elements_of(bits)

    def test_dense_masks_keep_the_digit_path(self):
        rng = random.Random(83)
        for bits in (k_set(100_000).bits, sumset_bits(k_set(20_000).bits),
                     ref_bits_of(rng.sample(range(120_000), 30_000))):
            assert bits.bit_count() * _SPARSE_RATIO >= bits.bit_length()

    def test_wide_sparse_unpack_is_fast(self):
        # the digit path reads all 2**24 positions, ~0.45 s on a 2-core host
        wide = 1 | 1 << (UNIVERSE_CAP - 1)
        best = min(timeit.repeat(lambda: elements_of(wide), number=1, repeat=3))
        assert best < 0.1
        best = min(timeit.repeat(
            lambda: IntSet([0, 5]) | IntSet([UNIVERSE_CAP - 1]), number=1, repeat=3))
        assert best < 0.1

    @pytest.mark.parametrize("top,size", [
        (8191, 4000),       # ~2000 runs
        (8191, 8000),       # nearly full: ~190 runs
        (32767, 32000),     # nearly full: ~750 runs
        (1_000_000, 1000),  # wide and sparse
        (32767, 16384),     # half full, ~8200 runs
        (98303, 49152),     # half full, ~24600 runs
    ])
    def test_public_kernel_on_random_sets(self, top, size):
        rng = random.Random(top + size)
        bits = ref_bits_of(rng.sample(range(top), size - 1) + [top])
        assert path_of(bits) is None
        sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
        if top > 100_000:  # the product agrees with the shift-OR reference
            assert (ref_product_bits(bits), ref_product_bits(bits, reflect=True)) == (sums, mags)
        assert sumset_bits(bits) == sums
        assert diff_bits(bits) == mags
        assert sum_diff_cards(bits) == (sums.bit_count(), 2 * mags.bit_count() - 1)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_thinned_residue_classes_hand_off(self, g, monkeypatch):
        # the multiples of g below 2**16, their top positions thinned: no
        # period shows at that end, so the run kernel takes them; the cover
        # stalls on the other classes' holes, reads g from them, and hands
        # every call to the classes mod g, or keeps on where those are too
        # many runs (g = 2 here), reading them once
        bits = thin_top(_smear(1, g, (1 << 16) // g), g)
        assert path_of(bits) is None
        read, classes = [], core._classes
        monkeypatch.setattr(core, "_classes", lambda *args: read.append(args[1]) or classes(*args))
        monkeypatch.setattr(core, "_run_kernel", lambda *args: read.append("kernel") or _run_kernel(*args))
        sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
        cards = (sums.bit_count(), 2 * mags.bit_count() - 1)
        handed = classes(bits, g) is not None
        assert handed == (g > 2)
        for call, want in ((diff_bits, mags), (sumset_bits, sums), (sum_diff_cards, cards)):
            read.clear()
            assert call(bits) == want
            assert read == ["kernel", g]

    def test_dispatch_keeps_wide_sparse_sets_on_shift_or(self):
        # sparse and dense random sets take the run kernel's shifts, in one
        # block; a set of five runs takes the interval path however wide
        rng = random.Random(73)
        sparse = ref_bits_of(rng.sample(range(2_000_000), 1000))
        dense = ref_bits_of(rng.sample(range(100_000), 50_000))
        for bits in (sparse, dense):
            assert path_of(bits) is None
            assert _blocks(bits) == [(elements_of(bits)[0], bits.bit_length() - 1)]
        assert sum_diff_cards(sparse) == ref_cards(sparse)
        assert path_of(k_set(100_000).bits) == 1

    def test_run_kernel_matches_reference(self):
        rng = random.Random(89)
        cases = [1, 1 << 5, 1 << 1000, 0b1011]  # singletons and a short set
        cases += [(1 << top) - 1 for top in (1, 2, 63, 64, 65, 1000, 4096)]  # all ones
        for _ in range(150):  # runs of 1..64 elements, gaps of 1..64
            bits, at = 0, rng.randrange(64)
            for _ in range(rng.randint(1, 60)):
                run = rng.randint(1, 64)
                bits |= ((1 << run) - 1) << at
                at += run + rng.randint(1, 64)
            cases.append(bits)
        # on both sides of the first checkpoint at 8 runs and of 64 runs:
        # singletons two apart, random runs, and long runs below a far point
        for runs in (7, 8, 9, 63, 64):
            cases.append(ref_bits_of(range(2 * runs)[::2]))
            bits, at = 0, rng.randrange(64)
            for _ in range(runs):
                length = rng.randint(1, 64)
                bits |= ((1 << length) - 1) << at
                at += length + rng.randint(1, 64)
            cases.append(bits)
            cases.append(sum(((1 << 100) - 1) << 101 * i for i in range(runs - 1))
                         | 1 << 50_000)
            assert [runs_of(bits) for bits in cases[-3:]] == [runs] * 3
        for bits in cases:
            sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
            assert sumset_bits(bits) == sums
            assert diff_bits(bits) == mags
            cards = (sums.bit_count(), 2 * mags.bit_count() - 1)
            assert sum_diff_cards(bits) == cards
            assert sum_diff_cards(bits, elements_of(bits)) == cards
            # the kernel called directly: 0 where not asked for
            assert _sums_and_mags(bits, True, False) == (sums, 0)
            assert _sums_and_mags(bits, False, True) == (0, mags)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_run_kernel_on_both_sides_of_the_block_gap(self, shift):
        # two blocks of 1000 bytes, each random at density 1/20 with both
        # ends set, z zero bytes apart: a mask of 2000 + z bytes splits where
        # z reaches a 16th of its bytes, a gap of M/16 bits, and the kernel
        # is exact with one front and with two
        assert _BLOCK_GAP == 16
        rng = random.Random(101 + shift)
        block = ref_bits_of(rng.sample(range(8000), 400) + [0, 7999])
        z = next(z for z in count() if z - (2000 + z) // 16 == shift)
        bits = block | block << 8 * (1000 + z)
        top = bits.bit_length() - 1
        assert _blocks(bits) == ([(0, 7999), (top - 7999, top)] if shift >= 0 else [(0, top)])
        assert path_of(bits) is None
        sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
        assert (sumset_bits(bits), diff_bits(bits)) == (sums, mags)
        assert sum_diff_cards(bits) == (sums.bit_count(), 2 * mags.bit_count() - 1)

    def test_kernel_matches_reference_on_block_shapes(self):
        # 1 to 6 random blocks of 400 to 3000 positions at densities 1/20 to
        # 1/2, apart by gaps a byte or two below, at or above M/_BLOCK_GAP;
        # one block with an empty middle narrower than that, beside a short
        # far block, so that only its own magnitude zone holds the
        # magnitudes across its middle; and the multiples of 2, 3 and 4
        # below 2**13 to 2**15, their top 128 positions thinned, with and
        # without one other element
        rng = random.Random(131)
        cases = []
        for blocks in [*range(1, 7)] * 6:
            sizes = [rng.randint(400, 3000) for _ in range(blocks)]
            # M = sum(sizes) + (blocks - 1) * M/_BLOCK_GAP, solved for M
            width = sum(sizes) * _BLOCK_GAP // (_BLOCK_GAP - blocks + 1)
            bits, at = 0, 0
            for size in sizes:
                p = rng.choice((0.05, 0.1, 0.5))
                bits |= (ref_bits_of(x for x in range(size) if rng.random() < p) | 1) << at
                at += size + width // _BLOCK_GAP + rng.choice((-16, -8, 0, 8, 16))
            cases.append(bits)
        for _ in range(40):
            part, p = rng.choice((2000, 4000)), rng.choice((0.05, 0.1, 0.3))
            ends = [ref_bits_of(x for x in range(part) if rng.random() < p) | 1 | 1 << part - 1
                    for _ in range(2)]
            width = part * 5 // 2  # the middle is a 20th, the far block a 64-bit run
            cases.append(ends[0] | ends[1] << part + width // 20 | (1 << 64) - 1 << width - 64)
        for g in (2, 3, 4):
            for k in (13, 14, 15):
                bits = thin_top(_smear(1, g, (1 << k) // g), k, span=128)
                cases += [bits, bits | 1 << rng.randrange(1 << k)]
        for bits in cases:
            sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
            assert (sumset_bits(bits), diff_bits(bits)) == (sums, mags)
            assert sum_diff_cards(bits) == (sums.bit_count(), 2 * mags.bit_count() - 1)

    def test_large_masks_are_counted_not_unpacked(self, monkeypatch):
        # the large path reads only the run edges of a mask, never its elements
        m, unpacked = 100_000, []
        bits = k_set(m).bits

        def recording(mask):
            unpacked.append(mask.bit_count())
            return elements_of(mask)
        # the interval path unpacks the run edges, and nothing else unpacks
        monkeypatch.setattr(core, "elements_of", recording)
        assert sum_diff_cards(bits) == (2 * m + 14, 2 * m + 13)
        assert unpacked == [5, 5]  # five runs, two edges each, from 64 bits at each end

    @pytest.mark.parametrize("m", [9, 1000, 20_000, 400_000])
    def test_k_set_closed_forms(self, m):
        # K(m)+K(m) is {0..2m+14} less 2m+9; the magnitudes are {0..m+7} less m+1
        kset = k_set(m)
        sums = sumset_bits(kset.bits)
        mags = diff_bits(kset.bits)
        assert sums == ((1 << (2 * m + 15)) - 1) ^ (1 << (2 * m + 9))
        assert mags == ((1 << (m + 8)) - 1) ^ (1 << (m + 1))
        assert sum_diff_cards(kset.bits, kset.elements) == (2 * m + 14, 2 * m + 13)
        if m <= 20_000:
            assert sums == ref_sumset_bits(kset.bits)
            assert mags == ref_diff_bits(kset.bits)

    def test_k_set_mask_at_the_cap(self):
        # {0..m+7} less 3, 5, 6, m+1, m+2, m+3, m+5, built without IntSet so
        # that only the kernel is timed
        m = UNIVERSE_CAP - 8
        bits = ((1 << (m + 8)) - 1) ^ sum(1 << e for e in (3, 5, 6, m + 1, m + 2, m + 3, m + 5))
        start = time.perf_counter()
        assert sum_diff_cards(bits) == (2 * m + 14, 2 * m + 13)
        assert time.perf_counter() - start < 2
        assert sumset_bits(bits) == ((1 << (2 * m + 15)) - 1) ^ (1 << (2 * m + 9))
        assert diff_bits(bits) == ((1 << (m + 8)) - 1) ^ (1 << (m + 1))

    def test_cap_sized_sets_stay_small(self):
        # an element tuple of k_set(2**24 - 8) alone takes ~800 MB, so the
        # bound shows that none is built; the peak is the child's own
        # VmHWM, as ru_maxrss would carry the forking test process's peak
        # over exec
        code = ("import mstd; m = 2**24 - 8; k = mstd.k_set(m); "
                "assert (len(k), k.min, k.max) == (m + 1, 0, m + 7); "
                "assert 2**24 - 1 in k and (k | k) == k; "
                "assert mstd.classify(k).excess == 1; "
                "assert mstd.classify(mstd.ap(0, 1, 2**24)).sum_card == 2**25 - 1; "
                "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert int(out.stdout) < 250 * 1024  # KiB

    @staticmethod
    def assert_kernels(monkeypatch, bits, checked=None, read=None):
        # every public kernel call on bits against the shift-OR reference, or
        # the product where that is too slow; checked, if given, is whether
        # the cover's checkpoint runs, and read the periods whose classes a
        # stalled cover reads in each call
        seen, verdicts = [], []
        classes, verdict = core._classes, core._verdict
        monkeypatch.setattr(core, "_classes", lambda *args: seen.append(args[1]) or classes(*args))
        monkeypatch.setattr(core, "_verdict", lambda *args: verdicts.append(args) or verdict(*args))
        if bits.bit_length() > 1 << 16:
            sums, mags = ref_product_bits(bits), ref_product_bits(bits, reflect=True)
        else:
            sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
        cards = (sums.bit_count(), 2 * mags.bit_count() - 1)
        for call, want in ((sumset_bits, sums), (diff_bits, mags), (sum_diff_cards, cards),
                           (lambda b: sum_diff_cards(b, elements_of(b)), cards)):
            seen.clear()
            assert call(bits) == want
            if read is not None:
                assert seen == read
        if checked is not None:
            assert bool(verdicts) == checked

    @pytest.mark.parametrize("k", [10, 11, 13, 15, 17])
    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.75, 0.9])
    def test_cover_on_random_sets(self, k, p, monkeypatch):
        # from density 1/4 up the ends settle every call; at 1/20 the sums
        # fill from the ends more slowly, and are checked again until they do
        rng = random.Random(1000 * k + int(100 * p))
        low = 0 if p in (0.25, 0.75) else 1000 + k  # min(A) > 0 otherwise
        bits = sum(1 << x for x in range(1 << k) if rng.random() < p) << low
        self.assert_kernels(monkeypatch, bits, checked=True)

    @pytest.mark.parametrize("bits", [
        1 << 5000,                  # one element
        1 | 1 << 70_000,            # two
        (1 << 5000) - 1 << 3,       # an interval
        k_set(20_000).bits,         # five runs
    ], ids=["one", "two", "interval", "k_set"])
    def test_few_runs_never_enter_the_cover(self, bits, monkeypatch):
        # fewer than 8 runs are all taken before the first checkpoint
        self.assert_kernels(monkeypatch, bits, checked=False, read=[])

    def test_few_runs_below_a_far_point_are_fast(self):
        # {0..999} and the top position: A+A is {0..1998}, {top..top+999} and
        # 2top, the magnitudes {0..999} and {top-999..top}; one shift per
        # element took ~1.7 s on a 2-core host
        top, block = UNIVERSE_CAP - 1, (1 << 1000) - 1
        a = IntSet.from_bits(block | 1 << top)
        for call, arg, want in (
                (classify, a, Classification(Kind.DIFFERENCE_DOMINANT, 3000, 3999)),
                (sumset_bits, a.bits, (1 << 1999) - 1 | block << top | 1 << 2 * top),
                (diff_bits, a.bits, block | block << top - 999)):
            start = time.perf_counter()
            assert call(arg) == want
            assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("bits, read", [
        # each with its top thinned, so that the run kernel takes it (the
        # interval path takes the plain ones, TestIntervalPath); the cover
        # stalls on the holes of the other classes and reads their period,
        # but at 2**14 the classes are too many runs for the interval path
        (thin_top(int("01" * 8192, 2), 1), [2]),  # the evens: no odd sum or magnitude
        # the multiples of 3 and two points in the middle, which alone make
        # the sums and magnitudes of the other two classes
        (thin_top(int("001" * 5461, 2), 3) | 1 << 8194 | 1 << 8195, [3]),
        # dense ends and an empty middle, so A+A and A-A have holes there
        # that two blocks' fronts close: the cover settles with no stall
        ((random.Random(3).getrandbits(4096) << 12_288) | random.Random(4).getrandbits(4096), []),
    ], ids=["evens", "multiples_of_3", "empty_middle"])
    def test_cover_gives_up_on_holes_the_ends_never_fill(self, bits, read, monkeypatch):
        assert path_of(bits) is None
        self.assert_kernels(monkeypatch, bits, checked=True, read=read)

    @pytest.mark.parametrize("p", [0.1, 0.06])
    def test_each_kind_has_its_own_verdict(self, p, monkeypatch):
        # random sets at M = 10**5, each kind asked alone and both together:
        # each kind's verdicts are its own, the pair's the two interleaved;
        # at density 1/10 the cover settles both kinds, and at 0.06 neither
        # halves its open count at the second checkpoint, finds no period
        # there, and both are checked again and settle by test
        rng = random.Random(7)
        bits = sum(1 << x for x in range(10 ** 5) if rng.random() < p) | 1 << 10 ** 5 - 1
        self.assert_kernels(monkeypatch, bits, checked=True, read=[])
        verdicts, verdict = [], core._verdict  # (runs taken, verdict) per call
        monkeypatch.setattr(core, "_verdict", lambda *args: verdicts.append(
            (args[2], verdict(*args))) or verdicts[-1][-1])
        alone = []
        for ask in ((True, False), (False, True), (True, True)):
            verdicts.clear()
            _sums_and_mags(bits, *ask)
            alone.append(verdicts[:])
        assert alone[2][::2] == alone[0] and alone[2][1::2] == alone[1]
        assert alone[0] == alone[1]
        assert [got for _, got in alone[0]] == (
            [None, None, None, "test"] if p == 0.1 else [None, "stalled", None, None, "test"])
        assert 200 < alone[0][-1][0] < 300 or p == 0.1

    def test_a_kind_that_does_not_halve_is_checked_again(self, monkeypatch):
        # 1000 random elements below 50000: at the second checkpoint neither
        # kind has halved its open count (the sums 86916 -> 64718), and the
        # open zones show no period, so both are checked again and settle by
        # the per-position test at ~623 runs
        bits = ref_bits_of(random.Random(5).sample(range(50_000), 1000))
        verdicts, verdict = [], core._verdict  # (left, before, taken, verdict) per call
        monkeypatch.setattr(core, "_verdict", lambda *args: verdicts.append(
            (*args[:3], verdict(*args))) or verdicts[-1][-1])
        read = []
        monkeypatch.setattr(core, "_classes", lambda *args: read.append(args))
        assert sum_diff_cards(bits) == ref_cards(bits)
        assert read == []
        again = [(before, left, got) for left, before, _, got in verdicts
                 if before is not None and 2 * left > before]
        assert again == [(86916, 64718, "stalled"), (42290, 32613, "stalled")]
        assert [got for *_, got in verdicts[-2:]] == ["test", "test"]
        assert 500 < verdicts[-1][2] < 700

    def test_the_sum_zone_starts_at_twice_the_least_element_left(self, monkeypatch):
        # dense ends read by the first pair of windows, the bottom one cut
        # back to 64; nothing in (64, 128], so 128 is a sum only as 64 + 64,
        # which no run taken holds, and the checkpoint must test it
        verdicts, verdict = [], core._verdict
        monkeypatch.setattr(core, "_verdict", lambda *args: verdicts.append(verdict(*args))
                            or verdicts[-1])
        for seed in range(40):
            rng = random.Random(seed)
            top = rng.randrange(600, 3000)
            low = [x for x in range(63) if rng.random() < 0.5] + [64]
            elems = {*low, *(x for x in range(129, top - 128) if rng.random() < 0.5),
                     *(top - x for x in low)}
            bits = ref_bits_of(elems)
            assert _sums_and_mags(bits, True, True) == (ref_sumset_bits(bits), ref_diff_bits(bits))
        assert "test" in verdicts

    def test_run_kernel_is_exact_for_every_kind_pair(self, monkeypatch):
        # random, dilated, offset and few-run sets of every size class
        # against the reference, every pair of kinds asked for; the cover's
        # checkpoint settles some kinds by tests, and checks others again
        # after a checkpoint that did not halve their open count
        verdicts, verdict = [], core._verdict
        monkeypatch.setattr(core, "_verdict", lambda *args: verdicts.append(
            (args[:2], verdict(*args))) or verdicts[-1][-1])
        rng = random.Random(97)
        for _ in range(400):
            width, scale = rng.choice((3, 20, 100, 400, 3000)), rng.choice((1, 1, 2, 3))
            elems = rng.sample(range(width), rng.randint(1, width))
            bits = ref_bits_of(scale * e for e in elems) << rng.randrange(200)
            if rng.random() < 0.2:  # a few long runs, far apart
                bits = sum(((1 << rng.randint(1, 300)) - 1) << 400 * i
                           for i in range(rng.randint(1, 20)))
            sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
            for ask_s, ask_d in ((True, False), (False, True), (True, True)):
                assert _sums_and_mags(bits, ask_s, ask_d) == (sums * ask_s, mags * ask_d)
        assert "test" in {got for _, got in verdicts}
        assert any(before is not None and 2 * left > before and got == "stalled"
                   for (left, before), got in verdicts)

    @pytest.mark.slow("about 3 s of products")
    def test_cover_at_scale(self):
        # a half-full set at 2**20 against the exact product, and one
        # reaching the top position classified in seconds
        rng = random.Random(20)
        bits = rng.getrandbits(1 << 20)
        sums, mags = sumset_bits(bits), diff_bits(bits)
        assert (sums, mags) == (ref_product_bits(bits), ref_product_bits(bits, reflect=True))
        assert sum_diff_cards(bits) == (sums.bit_count(), 2 * mags.bit_count() - 1)
        a = IntSet.from_bits(rng.getrandbits(UNIVERSE_CAP) | 1 << UNIVERSE_CAP - 1)
        start = time.perf_counter()
        got = classify(a)
        assert time.perf_counter() - start < 5
        assert got.sum_card <= 2 * a.max + 1 and got.diff_card <= 2 * a.max + 1

    def test_decimal_is_never_imported(self):
        # k_set's five runs and the 20000 odd numbers take the interval path,
        # and a random set of density 1/20 at 2**17 the run kernel, which
        # stalls on its sums and checks them again
        code = ("import random, sys, mstd.cli; "
                "mstd.sumset_bits(mstd.k_set(100_000).bits); mstd.sumset_bits(int('10' * 20_000, 2)); "
                "mstd.sum_diff_cards(mstd.bits_of(random.Random(1).sample(range(1 << 17), 6553))); "
                "print('decimal' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False"]


def spans_of(bits, g):
    # the interval path forced at g: the spans of A+A and of D, by class
    classes = [_runs(e, e.bit_count()) for e in (c ^ c << 1 for c in _strides(bits, g, range(g)))]
    return _span_sums(classes), _span_mags(classes)


class TestIntervalPath:
    @staticmethod
    def assert_exact(bits, gs=()):
        # every public call and the run kernel against the oracles, and the
        # spans at each g in gs, as masks and as counts
        sums, mags = ref_sumset_bits(bits), ref_diff_bits(bits)
        cards = (sums.bit_count(), 2 * mags.bit_count() - 1)
        assert (sumset_bits(bits), diff_bits(bits), sum_diff_cards(bits)) == (sums, mags, cards)
        assert sum_diff_cards(bits, elements_of(bits)) == cards
        for ask_s, ask_d in ((True, False), (False, True)):
            assert _sums_and_mags(bits, ask_s, ask_d) == (sums * ask_s, mags * ask_d)
        edges = bits ^ bits << 1
        assert _run_kernel(bits, edges, edges.bit_count(), True, True) == (sums, mags)
        for g in gs:
            s, d = spans_of(bits, g)
            assert (_span_mask(s), _span_mask(d)) == (sums, mags), g
            assert (_span_count(s), _span_count(d)) == (sums.bit_count(), mags.bit_count()), g

    def test_unions_of_progressions_at_every_g(self):
        # up to 4 progressions of steps up to 12, at g = 1, 2, 3, 4, 6 and 12;
        # at g = 1 the masks come from shifts and from digits
        rng = random.Random(113)
        many = []
        for _ in range(400):
            bits = 0
            for _ in range(rng.randint(1, 4)):
                bits |= _smear(1 << rng.randrange(300), rng.randint(1, 12), rng.randint(1, 40))
            self.assert_exact(bits, (1, 2, 3, 4, 6, 12))
            many.append(len(spans_of(bits, 1)[0][0]) > _FEW_SPANS)
        assert any(many) and not all(many)

    @pytest.mark.parametrize("bits, g", [
        (k_set(20_000).bits, 1),
        (mstd.nathanson_set(3000).bits, 4),
        (int("01" * 8192, 2), 2),  # the evens below 2**14
        (int("001" * 5461, 2) | 1 << 8194 | 1 << 8195, 3),  # multiples of 3 and two points
        (1 << 5000, 1),  # one element
        ((1 << 5000) - 1 << 3, 1),  # one run
        # dense ends, each of 64 positions, and an empty middle
        (random.Random(3).getrandbits(64) << 9000 | 1 << 9063
         | random.Random(4).getrandbits(64) | 1, None),
        (thin_top(int("01" * 8192, 2), 1), None),  # the evens with no period at the top
        # the evens at both ends, random in the middle: too many class runs
        (int("01" * 4096, 2) << 8192 | random.Random(5).getrandbits(8192) << 4096
         | int("01" * 2048, 2), None),
    ], ids=["k_set", "nathanson", "evens", "multiples_of_3", "one", "run", "empty_middle",
            "thinned_evens", "random_middle"])
    def test_shapes_take_their_path(self, bits, g, monkeypatch):
        # the path each shape takes, its outputs against the oracles, and
        # the run kernel called by the public calls only where it is taken
        assert path_of(bits) == g
        ran, run_kernel = [], core._run_kernel
        monkeypatch.setattr(core, "_run_kernel", lambda *args: ran.append(1) or run_kernel(*args))
        self.assert_exact(bits, (g,) if g and g > 1 else (1,) if g else ())
        assert bool(ran) == (g is None)

    def test_small_and_random_sets_keep_the_run_kernel(self):
        # search-sized sets, random sets of density 1/4 at 2**10 to 2**17,
        # and literals the size of the benchmark's CLI sets
        rng = random.Random(127)
        for top, size in ((22, 8), (25, 19), (71, 64)):
            for _ in range(300):
                assert path_of(ref_bits_of(rng.sample(range(top), size))) is None
        for k in range(10, 18):
            bits = sum(1 << x for x in range(1 << k) if rng.random() < 0.25)
            assert path_of(bits) is None
        for top, size in ((40, 12), (60, 9), (8000, 2000)):
            assert path_of(ref_bits_of(rng.sample(range(top), size))) is None

    def test_the_crossover(self):
        # R**2 < M/64 (mask words) takes intervals: four runs from 17
        # words, not at 16; at g = 2, three class runs from 10 words, not at 9
        def four(top):  # {0, 1}, {3}, {top - 2}, {top}
            return 0b1011 | 0b101 << top - 2
        assert [path_of(four(top)) for top in (1086, 1087)] == [None, 1]

        def three(top):  # the evens to top, and 301, 303, 305 and 341, 343: two runs mod 2
            return int("01" * (top // 2 + 1), 2) | 0b10101 << 301 | 0b101 << 341
        assert [path_of(three(top)) for top in (638, 640)] == [None, 2]
        for bits in (four(1086), four(1087), three(638), three(640)):
            self.assert_exact(bits, (1, 2))

    def test_periods_at_the_ends(self):
        # a period is read past the first quarter of each end's window, at
        # one of the first three offsets; both ends must show one
        evens = int("01" * 4096, 2)
        assert path_of(evens) == 2
        assert path_of(evens | 0b10111) == 2  # a few odd points at the bottom end
        assert path_of(evens | 1 << 201) is None  # an odd point past that end's first quarter
        # the split's period 30 = 1 + 29, and steps 4 and 6 at either end (lcm 12)
        thirty = sum(0b11 << 30 * i for i in range(300))
        assert path_of(thirty) == 30
        mixed = _smear(1, 4, 2000) | _smear(1 << 8000, 6, 2000)
        assert path_of(mixed) == 12
        self.assert_exact(mixed, (12,))


    @pytest.mark.parametrize("d1, d2", [(7, 12), (9, 10), (11, 12), (13, 14), (15, 17), (16, 17)])
    def test_two_progressions_past_lcm_64(self, d1, d2):
        # steps d1 from 0 to 3/5 of 80000 and d2 from 2/5 of it up: each end
        # shows one step, and the classes mod their lcm, 84 to 255, are a
        # run or two each; past _END_WINDOW (272) the run kernel takes them
        g = math.lcm(d1, d2)
        bits = _smear(1, d1, 48_000 // d1) | _smear(1 << 32_001, d2, 48_000 // d2)
        assert 64 < g and path_of(bits) == (g if g <= 256 else None)
        self.assert_exact(bits, (g,) if g <= 256 else ())


def test_smear_is_the_or_of_shifted_copies():
    # counts 1..70 cross the powers of two 2..64 and the ones either side
    rng = random.Random(25)
    for seed in (1, 0b11, 0b101, 1 << 9, rng.getrandbits(40) | 1):
        for step in range(1, 8):
            want = 0
            for count in range(1, 71):
                want |= seed << (count - 1) * step
                assert _smear(seed, step, count) == want, (seed, step, count)


def test_public_names_resolve():
    # __all__ is derived from the package's imports, submodules left out
    assert len(mstd.__all__) == len(set(mstd.__all__)) == 58
    assert "__version__" in mstd.__all__
    for name in mstd.__all__:
        assert not isinstance(getattr(mstd, name), ModuleType), name


SUBMODULES = ("core", "errors", "lemmas", "constructions", "search", "cli")
REQ = inspect.Parameter.empty  # a field without a default


def test_package_surface():
    # each public name is its home module's object, found on first use
    for name in mstd.__all__[:-1]:
        home = import_module(f"mstd.{mstd._HOME[name]}")
        value = getattr(mstd, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name
    star = {}
    exec("from mstd import *", star)
    assert set(mstd.__all__) <= set(star)
    assert all(star[name] is getattr(mstd, name) for name in mstd.__all__)
    assert set(mstd.__all__) <= set(dir(mstd))
    for name in SUBMODULES:
        assert getattr(mstd, name) is sys.modules[f"mstd.{name}"]
    with pytest.raises(AttributeError, match="nonexistent"):
        mstd.nonexistent
    assert not hasattr(mstd, "_nonexistent")


class TestRecords:
    """Result records: fields, defaults, repr, equality, hash, immutability."""

    A = IntSet([0, 2, 3])
    # (record, each field's default or REQ, values, repr)
    CASES = [
        (Classification, {"kind": REQ, "sum_card": REQ, "diff_card": REQ},
         (Kind.SUM_DOMINANT, 26, 25),
         "Classification(kind=<Kind.SUM_DOMINANT: 'sum-dominant'>, sum_card=26, "
         "diff_card=25)"),
        (GapNotation, {"origin": REQ, "gaps": REQ}, (2, (1, 6)),
         "GapNotation(origin=2, gaps=(1, 6))"),
        (mstd.ArithProg, {"start": REQ, "diff": REQ, "length": REQ}, (1, 2, 3),
         "ArithProg(start=1, diff=2, length=3)"),
        (mstd.LemmaVerdict, {"applies": REQ, "guarantee": None},
         (True, "not-sum-dominant"),
         "LemmaVerdict(applies=True, guarantee='not-sum-dominant')"),
        (mstd.Partition3Spec, {"m": REQ, "m1": REQ, "m2": REQ},
         (21, IntSet([71, 72]), IntSet([67])),
         "Partition3Spec(m=21, m1=IntSet({71, 72}), m2=IntSet({67}))"),
        (mstd.SpecViolation, {"constraint": REQ, "positions": REQ, "message": REQ},
         ("coverage", (1, 2), "differs"),
         "SpecViolation(constraint='coverage', positions=(1, 2), message='differs')"),
        (mstd.Partition3Result, {"a1": REQ, "a2": REQ, "s": REQ, "span": REQ},
         (A, A, A, 5),
         "Partition3Result(a1=IntSet({0, 2, 3}), a2=IntSet({0, 2, 3}), "
         "s=IntSet({0, 2, 3}), span=5)"),
        (mstd.SearchReport, {"search": REQ, "params": REQ, "examined": REQ,
                             "witnesses": REQ, "elapsed": REQ, "classified": 0},
         ("minsize", {"max_diameter": 3}, 7, [A], 0.5, 4),
         "SearchReport(search='minsize', params={'max_diameter': 3}, examined=7, "
         "witnesses=[IntSet({0, 2, 3})], elapsed=0.5, classified=4)"),
        (mstd.LargestSubsetResult, {"n": REQ, "n_value": REQ, "witness": REQ},
         (15, None, None), "LargestSubsetResult(n=15, n_value=None, witness=None)"),
        (mstd.Partition3Feasibility, {"r": REQ, "status": REQ, "reason": None,
                                      "witness": None, "examined": 0, "classified": 0},
         (24, "feasible", None, (A, A, A), 9, 8),
         "Partition3Feasibility(r=24, status='feasible', reason=None, "
         "witness=(IntSet({0, 2, 3}), IntSet({0, 2, 3}), IntSet({0, 2, 3})), "
         "examined=9, classified=8)"),
    ]

    @pytest.mark.parametrize("record, fields, values, text", CASES,
                             ids=[case[0].__name__ for case in CASES])
    def test_record(self, record, fields, values, text):
        params = inspect.signature(record).parameters
        assert list(params) == list(fields)
        assert {name: p.default for name, p in params.items()} == fields
        rec = record(*values)
        assert repr(rec) == text
        assert [getattr(rec, name) for name in fields] == list(values)
        twin = record(**dict(zip(fields, values)))
        assert rec == twin
        if record is mstd.SearchReport:  # it holds a dict and a list
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == hash(twin)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])

    @pytest.mark.parametrize("build", [
        lambda: mstd.ArithProg(-1, 1, 1),
        lambda: mstd.ArithProg(0, 0, 1),
        lambda: mstd.ArithProg(0, 1, 0),
        lambda: GapNotation(0, (1, 0)),
        lambda: mstd.ArithProg(1, 1, 1)._replace(diff=0),
        lambda: GapNotation(0, (1,))._replace(gaps=(0,)),
    ])
    def test_validation(self, build):
        with pytest.raises(InvalidParameterError):
            build()
