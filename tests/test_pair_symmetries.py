"""The exact cuts of the pair scans, checked on plain Python sets.

The pair scans classify one union of two progressions per class under
translation, the mirror x -> max - x and dilation, and none whose
offset the residue bound settles (search's module docstring). These
tests check those facts with naive_cards alone, over every union of two
progressions with differences at most 6 inside {0..18}; nothing here
imports the search engine.
"""

import math
from functools import cache

import pytest

from tests._oracles import is_residue_pair, naive_cards

SPAN, MAX_DIFF = 18, 6


def pair_classes():
    # one (d1, l1, d2, l2, offset) per ordered pair of progressions inside
    # {0..SPAN}, up to translation: the first starts at max(0, -offset), the
    # second at max(0, offset)
    shapes = [(d, l) for d in range(1, MAX_DIFF + 1) for l in range(1, SPAN // d + 2)]
    return [(d1, l1, d2, l2, o)
            for d1, l1 in shapes for d2, l2 in shapes
            for o in range((l1 - 1) * d1 - SPAN, SPAN - (l2 - 1) * d2 + 1)]


def progressions(d1, l1, d2, l2, o):
    a, b = max(0, -o), max(0, o)
    return frozenset(range(a, a + l1 * d1, d1)), frozenset(range(b, b + l2 * d2, d2))


cards = cache(naive_cards)
CLASSES = pair_classes()


def test_the_classes_cover_the_box():
    # every ordered pair of progressions inside {0..18}, shifted down by its
    # least start, is one class, and every class is such a pair
    rows = [(d, l, s) for d in range(1, MAX_DIFF + 1) for l in range(1, SPAN // d + 2)
            for s in range(SPAN - (l - 1) * d + 1)]
    reached = {(d1, l1, d2, l2, s2 - s1) for d1, l1, s1 in rows for d2, l2, s2 in rows}
    assert len(CLASSES) == len(set(CLASSES)) == len(reached)
    assert set(CLASSES) == reached
    for cls in CLASSES:
        a, b = progressions(*cls)
        assert min(a | b) == 0 and max(a | b) <= SPAN


def test_mirror_keeps_the_cards():
    # max - (A u B) is the pair of the same shapes at offset c - o, with
    # c = (l1-1)*d1 - (l2-1)*d2, which is n2 - n1 for the runs of any span
    for d1, l1, d2, l2, o in CLASSES:
        a, b = progressions(d1, l1, d2, l2, o)
        top = max(a | b)
        image = progressions(d1, l1, d2, l2, (l1 - 1) * d1 - (l2 - 1) * d2 - o)
        assert image == (frozenset(top - x for x in a), frozenset(top - x for x in b))
        assert cards(frozenset(top - x for x in a | b)) == cards(a | b)


def test_dilation_keeps_the_cards():
    # h*(A u B) is a union of progressions of differences h*d1, h*d2 whose
    # offset is h*o; h*x is a Freiman isomorphism, so the cards stay
    dilated = 0
    for d1, l1, d2, l2, o in CLASSES:
        a, b = progressions(d1, l1, d2, l2, o)
        for h in range(2, SPAN // max(max(a | b), 1) + 1):
            assert progressions(h * d1, l1, h * d2, l2, h * o) == (
                frozenset(h * x for x in a), frozenset(h * x for x in b))
            assert cards(frozenset(h * x for x in a | b)) == cards(a | b)
            dilated += 1
    assert dilated > 10000


@pytest.mark.parametrize("d1, d2", [(d1, d2) for d1 in range(1, MAX_DIFF + 1)
                                    for d2 in range(1, MAX_DIFF + 1) if math.gcd(d1, d2) > 1])
def test_every_other_pair_is_a_dilate_of_a_primitive_one(d1, d2):
    # with g = gcd(d1, d2) and s = o mod g: s = 0 divides the union by g into
    # a gcd-1 pair, and s = g/2 divides it by g/2 into a gcd-2 pair at an
    # odd offset; every other s is a residue pair
    g = math.gcd(d1, d2)
    for _, l1, _, l2, o in [cls for cls in CLASSES if cls[0::2] == (d1, d2)]:
        a, b = progressions(d1, l1, d2, l2, o)
        if is_residue_pair(d1, d2, o):
            continue
        h = g if o % g == 0 else g // 2
        small = progressions(d1 // h, l1, d2 // h, l2, o // h)
        assert (o % h, math.gcd(d1 // h, d2 // h)) == (0, g // h)
        assert small == (frozenset(x // h for x in a), frozenset(x // h for x in b))
        assert g // h == 1 or (o // h) % 2 == 1
        assert cards(small[0] | small[1]) == cards(a | b)


def test_residue_pairs_are_never_sum_dominant():
    # s and 2s nonzero mod g: A+A, B+B and A+B lie in three residue classes,
    # A-B and B-A in two more, apart from A-A u B-B, and |A-B| = |A+B|, so
    # |S| - |D| <= min(l1, l2) - max(l1, l2)
    seen = 0
    for d1, l1, d2, l2, o in CLASSES:
        if is_residue_pair(d1, d2, o):
            a, b = progressions(d1, l1, d2, l2, o)
            sc, dc = cards(a | b)
            assert sc - dc <= min(l1, l2) - max(l1, l2)
            seen += 1
    assert seen == 1990
