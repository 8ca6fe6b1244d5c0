"""Slow reference implementations used to cross-check the fast kernel.

The naive functions work on plain Python sets with explicit double
loops. The ref_ functions are the original shift-OR kernel, one shifted
copy of the mask per element, and ref_product_bits an exact decimal
product for masks too wide for that. None of them shares code with the
package's bitmask arithmetic. The ref_*_worker and ref_*_scan functions are the
search engines' candidate loops as plain combinations loops over the
shift-OR reference. The ref_parse_ functions are the character-by-
character scanners that read the two set notations before the token
regex did, and the other ref_ functions read gaps, mirrors and residue
classes off element tuples, as the library did before core's reflect,
stride and dilate. mask_cases makes the seeded sets they are compared on.
"""

import decimal
import math
import random
import re
from functools import cache
from itertools import combinations

from mstd.core import GapNotation, IntSet
from mstd.errors import ParseError


def naive_sumset(elements):
    return {a + b for a in elements for b in elements}


def naive_diffset(elements):
    return {a - b for a in elements for b in elements}


def naive_cards(elements):
    """(|A+A|, |A-A|) the quadratic way."""
    return len(naive_sumset(elements)), len(naive_diffset(elements))


def naive_excess(elements):
    sc, dc = naive_cards(elements)
    return sc - dc


def naive_is_sum_dominant(elements):
    sc, dc = naive_cards(elements)
    return sc > dc


# ---------------------------------------------------------------------------
# shift-OR reference: the bitmask kernel as it stood before the linear
# pack/unpack, the run kernel and the interval path, kept to cross-check
# them; and an exact decimal product for masks too wide for one shift per
# element


def ref_bits_of(elements):
    bits = 0
    for e in elements:
        bits |= 1 << e
    return bits


def ref_elements_of(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def ref_sumset_bits(bits):
    s = 0
    for e in ref_elements_of(bits):
        s |= bits << e
    return s


def ref_diff_bits(bits):
    d = 0
    for e in ref_elements_of(bits):
        d |= bits >> e
    return d


def ref_cards(bits):
    """(|A+A|, |A-A|) of a nonempty mask, as the package's sum_diff_cards gives them."""
    return ref_sumset_bits(bits).bit_count(), 2 * ref_diff_bits(bits).bit_count() - 1


def ref_product_bits(bits, reflect=False):
    """bits(A+A), or bits(D) with reflect, from the exact decimal product
    A(x)*A(x) (A(x)*A'(x) for D, A' = {max(A) - a}) at x = 10**w > |A|,
    A(x) = sum of x**a: its w-digit block s counts the ways to make s, which
    no block overflows, so the nonzero blocks are the support."""
    elems = [i for i, c in enumerate(reversed(bin(bits)[2:])) if c == "1"]
    top, w = elems[-1], len(str(len(elems)))
    ctx = decimal.Context(prec=w * (2 * top + 1), Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded])

    def at_x(xs):  # the digits of A(10**w), most significant first
        digits = bytearray(b"0") * (w * (top + 1))
        for e in xs:
            digits[w * (top - e) + w - 1] = 49  # ord("1")
        return decimal.Decimal(digits.decode())
    mirror = [top - e for e in elems] if reflect else elems
    blocks = str(ctx.multiply(at_x(elems), at_x(mirror))).zfill(w * (2 * top + 1))
    nonzero = bytes.maketrans(b"23456789", b"11111111")
    out = 0
    for i in range(w):  # digit i of every block, as a binary numeral over blocks
        out |= int(blocks[i::w].encode().translate(nonzero), 2)
    return out >> top if reflect else out  # the magnitude k - top sits in block k


def ref_is_sum_dominant(elements):
    sc, dc = ref_cards(ref_bits_of(elements))
    return sc > dc


# ---------------------------------------------------------------------------
# combination scans as they stood before the prefix-sharing walk: one
# itertools.combinations loop per block, each candidate classified from
# scratch by the shift-OR reference above


def ref_largest_worker(n, d, first):
    kept = (n - 2) - d
    found = []
    count = 0
    for rest in combinations(range(first + 1, n - 1), kept - 1):
        elems = (0, first) + rest + (n - 1,)
        count += 1
        if ref_is_sum_dominant(elems):
            found.append(elems)
    return count, found


def ref_largest_scan(n, max_discard=8):
    """(examined, sorted witnesses) of the first productive discard level."""
    limit = min(max_discard, n - 2, max(0, n - 8))
    examined = 0
    hits = []
    for d in range(limit + 1):
        kept = (n - 2) - d
        if kept == 0:
            examined += 1
            hits = [(0, n - 1)] if ref_is_sum_dominant((0, n - 1)) else []
        else:
            level = []
            for first in range(1, (n - 1) - (kept - 1)):
                count, found = ref_largest_worker(n, d, first)
                examined += count
                level.extend(found)
            hits = sorted(level)
        if hits:
            break
    return examined, hits


@cache  # each scan bound re-walks the blocks of the smaller ones
def ref_minsize_worker(diameter, j):
    found = []
    count = 0
    for mid in combinations(range(1, diameter), j):
        elems = (0,) + mid + (diameter,)
        count += 1
        if ref_is_sum_dominant(elems):
            found.append(elems)
    return count, tuple(found)


def ref_minsize_scan(max_diameter):
    examined = 0
    hits = []
    for diameter in range(1, max_diameter + 1):
        for j in range(min(6, diameter - 1) + 1):
            count, found = ref_minsize_worker(diameter, j)
            examined += count
            hits.extend(found)
    return examined, sorted(hits)


def ref_ap_runs(span, diffs):
    # masks of every progression inside {0..span} with a difference in
    # diffs, one list (run) per (difference, length), starts ascending
    runs = []
    for d in diffs:
        length = 1
        while (length - 1) * d <= span:
            runs.append([ref_bits_of(range(start, start + length * d, d))
                         for start in range(span - (length - 1) * d + 1)])
            length += 1
    return runs


def ref_ap_rows(span, diffs):
    # (difference, start, mask) of every progression inside {0..span} with
    # a difference in diffs
    return [(d, start, ref_bits_of(range(start, start + length * d, d)))
            for d in diffs for length in range(1, span // d + 2)
            for start in range(span - (length - 1) * d + 1)]


def is_residue_pair(d1, d2, offset):
    """Whether s = offset mod gcd(d1, d2) has s and 2s both nonzero.

    Then the union of two progressions with these differences, the second
    starting `offset` after the first, has |A+A| - |A-A| <= min(l1, l2) -
    max(l1, l2) <= 0 (search's module docstring), so it is never sum-dominant.
    """
    g = math.gcd(d1, d2)
    return offset % g != 0 and 2 * offset % g != 0


def ref_pair_scan(span, diff_groups, accept=lambda sc, dc: sc > dc, residue=False):
    """(examined, sorted witnesses) over every ordered pair of rows per group.

    A union is a witness when accept(|A+A|, |A-A|) holds, the cards coming
    from ref_cards. With residue=True the pairs that is_residue_pair
    settles are not asked: a stand-in verdict does not know the bound.
    """
    examined = 0
    hits = set()
    for diffs in diff_groups:
        rows = ref_ap_rows(span, diffs)
        for d1, s1, m1 in rows:
            for d2, s2, m2 in rows:
                examined += 1
                if residue and is_residue_pair(d1, d2, s2 - s1):
                    continue
                if accept(*ref_cards(m1 | m2)):
                    hits.add(ref_elements_of(m1 | m2))
    return examined, sorted(hits)


def ref_split_worker(r, size_a, second):
    found = []
    count = 0
    for rest_a in combinations(range(second + 1, r + 1), size_a - 2):
        a = (1, second) + rest_a
        count += 1
        if not ref_is_sum_dominant(a):
            continue
        rest = [x for x in range(1, r + 1) if x not in a]
        for size_b in range(8, len(rest) - 8 + 1):
            for comb in combinations(rest[1:], size_b - 1):
                b = (rest[0],) + comb
                if not ref_is_sum_dominant(b):
                    continue
                c = tuple(x for x in rest if x not in b)
                if ref_is_sum_dominant(c):
                    found.append((a, b, c))
    return count, found


@cache  # test_partition3 runs one walk at several worker counts
def ref_partition3_search(r):
    """(examined, least witness or None) of the exhaustive three-part search."""
    examined = 0
    for size_a in range(8, r - 16 + 1):
        level = []
        for second in range(2, r - size_a + 3):
            count, found = ref_split_worker(r, size_a, second)
            examined += count
            level.extend(found)
        if level:
            return examined, min(level)
    return examined, None


# ---------------------------------------------------------------------------
# three-part splits from translated 8-element parts, for a stand-in verdict
# on the last part

# Hegarty (2007): a sum-dominant set has at least 8 elements, and the
# 8-element ones are affine images of the first set below; the only two
# of diameter <= 25 are it and its mirror
SD8_FORMS = ((0, 2, 3, 4, 7, 11, 12, 14), (0, 2, 3, 7, 10, 11, 12, 14))


def ref_placements(r):
    """Every translate of SD8_FORMS inside {1..r}, form by form, start ascending."""
    return [tuple(x + t for x in form)
            for form in SD8_FORMS for t in range(1, r + 1 - form[-1])]


def ref_completions(r, places, i):
    """Splits of {1..r} with part places[i], as (part with 1, part with the least element left, last).

    The last part is the complement and is accepted whatever it is: one
    split per later disjoint placement, and one per sum-dominant B of 9
    or more elements owning the least element outside places[i] that
    leaves 9 or more.
    """
    p = places[i]
    rest = [x for x in range(1, r + 1) if x not in p]
    pairs = [q for q in places[i + 1:] if not set(p) & set(q)]
    for size_b in range(9, len(rest) - 9 + 1):
        pairs += [b for comb in combinations(rest[1:], size_b - 1)
                  for b in [(rest[0],) + comb] if ref_is_sum_dominant(b)]
    return [tuple(sorted((p, q, tuple(x for x in rest if x not in q)))) for q in pairs]


def ref_least_split(r, splits):
    """(examined, witness) of the three-part search given every split it finds.

    The witness has the smallest part with 1, then the least triple; the
    count is that of the old walk over the first parts {1, ...} up to its
    size, sum of C(r-1, a-1).
    """
    a, b, c = min(splits, key=lambda split: (len(split[0]), split))
    return sum(math.comb(r - 1, n - 1) for n in range(8, len(a) + 1)), (a, b, c)


# ---------------------------------------------------------------------------
# text notations: the two character scanners the tokenizer replaced, kept
# as they stood so a test can compare outcomes, errors and offsets included


_INT_RE = re.compile(r"-?\d+")


def _scan_int(text: str, pos: int) -> tuple[int, int]:
    # returns (value, end); pos must point at the token start
    m = _INT_RE.match(text, pos)
    if not m:
        raise ParseError(f"expected integer, found {text[pos:pos + 1]!r}", pos)
    return int(m.group()), m.end()


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def ref_parse_set_literal(text: str) -> IntSet:
    """Parse "{1, 2, 3}", "1,2,3", or "1 2 3" into an IntSet.

    Elements must be nonnegative decimal integers; separators are commas
    and/or whitespace; braces are optional but must be balanced. "{}" is
    the empty set. Raises ParseError with the byte offset of the first
    offending token.
    """
    pos = _skip_ws(text, 0)
    closing = -1
    if pos < len(text) and text[pos] == "{":
        depth_open = pos
        pos += 1
        closing = text.rfind("}")
        if closing < depth_open:
            raise ParseError("unbalanced '{'", depth_open)
        tail = _skip_ws(text, closing + 1)
        if tail != len(text):
            raise ParseError("trailing input after '}'", tail)
        end = closing
    else:
        if "}" in text:
            raise ParseError("unbalanced '}'", text.index("}"))
        end = len(text)

    elems = []
    want_item = True
    while True:
        pos = _skip_ws(text, pos)
        if pos >= end:
            break
        ch = text[pos]
        if ch == ",":
            if want_item:
                raise ParseError("expected integer before ','", pos)
            want_item = True
            pos += 1
            continue
        if ch == "-":
            raise ParseError("negative elements are not allowed", pos)
        if not ch.isdigit():
            raise ParseError(f"unexpected token {ch!r}", pos)
        value, pos = _scan_int(text, pos)
        elems.append(value)
        want_item = False
    if want_item and elems:
        raise ParseError("dangling ','", end)
    if closing == -1 and not elems:
        raise ParseError("no elements found", 0)
    return IntSet(elems)


def ref_parse_gap_notation(text: str) -> GapNotation:
    """Parse "(ORIGIN | GAP, GAP, ...)" or the singleton form "(ORIGIN |)".

    Gaps must be positive integers. Raises ParseError with the byte
    offset of the first offending token.
    """
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '('", pos)
    pos = _skip_ws(text, pos + 1)
    if pos < len(text) and text[pos] == "-":
        raise ParseError("origin must be nonnegative", pos)
    origin, pos = _scan_int(text, pos)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "|":
        raise ParseError("expected '|'", pos)
    pos += 1

    gaps = []
    want_item = True
    first = True
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise ParseError("expected ')'", pos)
        ch = text[pos]
        if ch == ")":
            if want_item and not first:
                raise ParseError("dangling ','", pos)
            pos += 1
            break
        if ch == ",":
            if want_item:
                raise ParseError("expected gap before ','", pos)
            want_item = True
            pos += 1
            continue
        if not want_item:
            raise ParseError("expected ',' between gaps", pos)
        gap_at = pos
        value, pos = _scan_int(text, pos)
        if value < 1:
            raise ParseError(f"gap {value} is not positive", gap_at)
        gaps.append(value)
        want_item = False
        first = False
    tail = _skip_ws(text, pos)
    if tail != len(text):
        raise ParseError("trailing input after ')'", tail)
    return GapNotation(origin, tuple(gaps))


# ---------------------------------------------------------------------------
# lemma conditions read off the gap tuple, as they stood before the mask checks


def ref_ms_condition1(elements):
    """Whether every gap of a nonempty sorted tuple is at most 2."""
    return all(b - a <= 2 for a, b in zip(elements, elements[1:]))


# ---------------------------------------------------------------------------
# the three-part split's default division as a grid loop, as it stood before
# the closed form


def ref_default_m1(m):
    """M1 of default_blocks(m): pairs {p, p+1} from p = 66 + 30t, each moved
    right until it misses the center set, while p + 1 <= 59 + m."""
    center = {66, 68, 69, 70, 73, 77, 78, 80}
    out, t = [], 0
    while True:
        p = 66 + 30 * t
        while p in center or p + 1 in center:
            p += 1
        if p + 1 > 59 + m:
            return out
        out += [p, p + 1]
        t += 1


# ---------------------------------------------------------------------------
# AP recognition from the gap tuple, as it stood before the mask check


def ref_is_arithmetic_progression(elements):
    """(start, diff, length) of a nonempty sorted tuple that is an arithmetic
    progression, diff 1 for a singleton, else None."""
    if len(elements) == 1:
        return (elements[0], 1, 1)
    gaps = [b - a for a, b in zip(elements, elements[1:])]
    if any(g != gaps[0] for g in gaps):
        return None
    return (elements[0], gaps[0], len(elements))


# ---------------------------------------------------------------------------
# the three-part split assembled from element lists, as it stood before the
# bridges became translates of one block


def ref_partition3_parts(spec):
    """Parts one and two of partition3(spec), every block written out."""
    m = spec.m

    def odd_steps(lo, hi):
        return list(range(lo, hi + 1, 2))

    def moved(elements, by):
        return [e + by for e in elements]

    low_1 = [1, 2, 3, 4, 8, 9, 11, 13, 14, 15, 20]
    high_1 = [21, 26, 27, 28, 31, 33, 37, 38, 39, 40]
    low_2 = [5, 6, 7, 10, 12, 16, 17, 18, 19]
    high_2 = [22, 23, 24, 25, 29, 30, 32, 34, 35, 36]
    bridge_low_1 = [24] + odd_steps(25, 61) + [62]
    bridge_high_1 = [63 + m] + odd_steps(64 + m, 100 + m) + [101 + m]
    bridge_low_2 = [21, 22, 23] + odd_steps(26, 60) + [63, 64, 65]
    bridge_high_2 = ([60 + m, 61 + m, 62 + m] + odd_steps(65 + m, 99 + m)
                     + [102 + m, 103 + m, 104 + m])
    a1 = IntSet(low_1 + bridge_low_1 + bridge_high_1 + moved(high_1, m + 84)) | spec.m1
    a2 = IntSet(low_2 + bridge_low_2 + bridge_high_2 + moved(high_2, m + 84)) | spec.m2
    return a1, a2


# ---------------------------------------------------------------------------
# the mirror, residue and gap readers on element tuples, as they stood before
# core's reflect, stride and dilate


def ref_reflect(elements):
    """{max - x} of a nonempty sorted tuple, sorted."""
    return tuple(elements[-1] - x for x in reversed(elements))


def ref_stride(elements, g, r):
    """{(x - r)/g : x = r mod g} of a sorted tuple."""
    return tuple((x - r) // g for x in elements if x % g == r)


def ref_dilate(elements, g):
    """{g*x} of a sorted tuple."""
    return tuple(g * x for x in elements)


def ref_symmetry_center(elements):
    """min + max of a nonempty sorted tuple that is its own mirror, else None."""
    c = elements[0] + elements[-1]
    return c if {c - x for x in elements} == set(elements) else None


def ref_normalize_affine(elements):
    """A sorted tuple of two or more elements moved to 0 and divided by its gap gcd."""
    lo = elements[0]
    shifted = [e - lo for e in elements]
    g = 0
    for e in shifted:
        g = math.gcd(g, e)
    return tuple(e // g for e in shifted)


def ref_infer_block_gap(elements):
    """The one gap value other than 1 of a nonempty sorted tuple, else None."""
    other = {b - a for a, b in zip(elements, elements[1:]) if b - a != 1}
    return other.pop() if len(other) == 1 else None


def ref_ms_condition2(elements, m):
    """Whether every gap is 1 or m and the first and last runs of unit gaps
    have at least m - 1 steps; vacuously so with no unit gap."""
    gaps = [b - a for a, b in zip(elements, elements[1:])]
    if any(g != 1 and g != m for g in gaps):
        return False
    runs = []
    cur = 0
    for g in gaps:
        if g == 1:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return not runs or (runs[0] >= m - 1 and runs[-1] >= m - 1)


def ref_images(u, diff, span, max_diff):
    """The pair scans' witness images of u (least element 0), by element loops:
    u and its mirror, their dilates h*u while h <= max_diff/diff and h*max(u)
    <= span, each with every translate inside {0..span}."""
    elements = ref_elements_of(u)
    out = []
    for w in (elements, ref_reflect(elements)):
        for h in range(1, max_diff // diff + 1):
            if h * w[-1] > span:
                break
            hw = ref_bits_of(ref_dilate(w, h))
            out += [hw << v for v in range(span + 1 - h * w[-1])]
    return out


def mask_cases(seed, count):
    """count seeded nonempty sorted tuples, in turn random, residue-class (g
    times a random set plus r, every g <= 11 and r < g in turn) and block-
    structured (runs between gaps of mostly one value m), each moved up by 0
    or a random origin."""
    rng = random.Random(seed)
    classes = [(g, r) for g in range(1, 12) for r in range(g)]
    out = []
    for i in range(count):
        if i % 3 == 0:
            n, p = rng.randint(1, 80), rng.random()
            elems = [x for x in range(n) if rng.random() < p] or [n - 1]
        elif i % 3 == 1:
            g, r = classes[i // 3 % len(classes)]
            n, p = rng.randint(1, 24), rng.random()
            elems = [g * x + r for x in range(n) if rng.random() < p] or [r]
        else:
            m = rng.randint(2, 9)
            other = rng.choice((m, m, m + 1, rng.randint(2, 12)))
            elems, x = [], 0
            for _ in range(rng.randint(1, 6)):
                length = rng.randint(1, 2 * m)
                elems += range(x, x + length)
                x += length - 1 + rng.choice((m, m, m, other))
        origin = rng.choice((0, 0, rng.randrange(64)))
        out.append(tuple(origin + e for e in elems))
    return out
