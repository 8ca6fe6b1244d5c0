"""Explicit families of sum-dominant sets and the three-part interval split.

k_set(m) is the workhorse family

    K(m) = {0,1,2,4} u {7,...,m} u {m+4, m+6, m+7},   m >= 9

with |K+K| - |K-K| = 1 for every m: the sumset misses only 2m+9 out of
{0..2m+14} while the difference magnitudes miss only m+1. nathanson_set(k)
is the classic three-progression family

    {0,2,4} u {3,7,11,...,4k-1} u {4k, 4k+2}

sum-dominant with excess exactly +1 for each admitted k. (Some printings
drop the element 4; that variant is symmetric about 2k+1 after doubling,
hence balanced, so the corrected form above is what the family's
sum-dominance claim actually requires.)

partition3 splits the interval {1,...,124+m} into three pairwise disjoint
sum-dominant sets built from fixed anchor blocks plus a caller-supplied
division (M1, M2) of the middle window {66,...,59+m} minus the fixed
center set. M1 must carry a chain of disjoint consecutive pairs, starting
inside {66..101}, consecutive pair starts at most 39 apart, ending with a
pair inside {24+m..59+m}; M2 must carry the analogous chain of triplets
(starts at most 40 apart, first inside {66..105}, last inside
{20+m..59+m}). The chains keep every middle element within reach of both
ends so the assembled parts stay sum-dominant for every m >= 21. Parts
one and two are each a low anchor block, an odd-step bridge up to the
window, their share of the window, that bridge moved up by m + 39 (on
to the high block) and a high anchor block moved up by m + 84.

default_blocks(m) picks a canonical (M1, M2): pair starts on the grid
66 + 30t, each shifted right off the center set, clipped to the window;
everything else goes to M2. The center set lies in {66..80}, so only the
first pair moves (to 71); the others start at p = 66 + 30t for
1 <= t <= (m - 8) // 30, the largest t with p + 1 <= 59 + m. So M1 is
built in closed form: {71, 72} plus one progression of starts, times 3
(which adds x + 1 to each start x). The grid spacing (30 <= 39, and <= 40 for the complementary triplet
runs) keeps both chains valid, which the tests confirm for every m in
21..1199; the spec is still validated before it is returned, at mask
speed (see _chain_exists). At m=21 this yields M1 = {71,72},
M2 = {67,74,75,76,79}.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import IntSet, _num, _require_int, _smear, _within_cap, elements_of
from .errors import ConstraintViolationError, InvalidParameterError
from .lemmas import ArithProg, is_arithmetic_progression

# fixed anchor blocks of the three-part split
LOW_BLOCK_1 = IntSet((1, 2, 3, 4, 8, 9, 11, 13, 14, 15, 20))
HIGH_BLOCK_1 = IntSet((21, 26, 27, 28, 31, 33, 37, 38, 39, 40))
LOW_BLOCK_2 = IntSet((5, 6, 7, 10, 12, 16, 17, 18, 19))
HIGH_BLOCK_2 = IntSet((22, 23, 24, 25, 29, 30, 32, 34, 35, 36))
# the odd-step bridges from the low blocks up to the window; moved up by
# m + 39, each is also the bridge from the window up to its high block
BRIDGE_1 = IntSet((24, *range(25, 62, 2), 62))
BRIDGE_2 = IntSet((21, 22, 23, *range(26, 61, 2), 63, 64, 65))

# the third part: fixed for every m, excess +1 on its own
CENTER_SET = IntSet((66, 68, 69, 70, 73, 77, 78, 80))

MIN_WINDOW_M = 21


def ap(start: int, diff: int, length: int) -> IntSet:
    """Expand the arithmetic progression start, start+diff, ... (length terms)."""
    return ArithProg(start, diff, length).expand()


def k_set(m: int) -> IntSet:
    """The m+1 element family {0,1,2,4} u {7..m} u {m+4, m+6, m+7}.

    Sum-dominant with excess exactly +1 for every m >= 9.
    """
    if _require_int(m, "k_set m") < 9:
        raise InvalidParameterError(f"k_set needs m >= 9, got {_num(m)}")
    _within_cap(m + 7, "k_set")
    # {0,1,2,4}, the interval 7..m, {m+4, m+6, m+7}
    return IntSet.from_bits(0b10111 | _smear(1 << 7, 1, m - 6) | 0b1101 << (m + 4))


def nathanson_set(k: int) -> IntSet:
    """Three-progression family {0,2,4} u {3,7,...,4k-1} u {4k, 4k+2}.

    Sum-dominant with excess exactly +1 for every k >= 5.
    """
    if _require_int(k, "nathanson_set k") < 5:
        raise InvalidParameterError(f"nathanson_set needs k >= 5, got {_num(k)}")
    _within_cap(4 * k + 2, "nathanson_set")
    # {0,2,4}, 3, 7, ..., 4k-1, and {4k, 4k+2}
    return IntSet.from_bits(0b10101 | _smear(1 << 3, 4, k) | 0b101 << 4 * k)


def union_two_aps(p1: ArithProg, p2: ArithProg) -> IntSet:
    """Union of two progressions.

    When the progressions share a common difference and overlap, the
    union collapses to a single progression (verified here), which is
    why such unions are never sum-dominant.
    """
    a = p1.expand()
    b = p2.expand()
    out = a | b
    if p1.diff == p2.diff and not a.isdisjoint(b) \
            and is_arithmetic_progression(out) is None:
        raise InvalidParameterError(
            f"overlapping progressions {p1} and {p2} do not unite into one")
    return out


# ---------------------------------------------------------------------------
# three-part split


class Partition3Spec(NamedTuple):
    """Parameters of the split: interval scale m and the window division."""

    m: int
    m1: IntSet
    m2: IntSet


class SpecViolation(NamedTuple):
    """One failed spec constraint with the positions that break it."""

    constraint: str
    positions: tuple[int, ...]
    message: str


class Partition3Result(NamedTuple):
    a1: IntSet
    a2: IntSet
    s: IntSet
    span: int


def middle_window(m: int) -> IntSet:
    """The free middle positions {66..59+m} minus the fixed center set."""
    if _require_int(m, "window m") < MIN_WINDOW_M:
        raise InvalidParameterError(f"window needs m >= {MIN_WINDOW_M}, got {_num(m)}")
    _within_cap(124 + m, "the three-part split")
    return IntSet.from_bits(_smear(1 << 66, 1, m - 6)) - CENTER_SET


def _run_bits(bits: int, width: int) -> int:
    # x such that x, x+1, ..., x+width-1 all lie in the set of bits
    run = bits
    for i in range(1, width):
        run &= bits >> i
    return run


def _chain_exists(s: IntSet, width: int, max_gap: int,
                  first_lo: int, first_hi: int,
                  last_lo: int, last_hi: int) -> bool:
    """Reachability over runs of `width` consecutive elements of s.

    A chain is a sequence of disjoint runs with consecutive start
    positions at most max_gap apart, whose first run fits in
    [first_lo, first_hi] and whose last fits in [last_lo, last_hi]. So
    a start is reachable iff it lies in the first zone of starts F, or
    some reachable start lies in [x - max_gap, x - width], a hop of
    length in [width, max_gap]; the answer is whether a reachable start
    lies in the last zone Z.

    A certificate on masks settles most divisions without the sweep.
    Let s0 be the least start in F, and L the starts in [s0, max Z].
    Every reachable start is at least s0: one in F is, and one a hop
    past a reachable start is greater than it. A chain that ends in Z
    has no start past max Z. So the chains that matter use starts of L
    only. Smear L over the hop lengths: bit x of the OR of L << h over
    width <= h <= max_gap is set iff some start of L lies in
    [x - max_gap, x - width]. Suppose every start of L outside F has
    its bit set. Then every start x of L is reachable, by induction on
    ascending starts: if x is in F, it is; otherwise some start y of L
    lies in [x - max_gap, x - width], so y < x is reachable, and x is a
    hop past it. The answer is then whether L meets Z. If some start
    of L outside F has no bit, this proves nothing, and the sweep
    decides. Empty zones, and max_gap < width (no hop, so only F is
    reachable), are settled before the smear.
    """
    starts = _run_bits(s.bits, width)
    top_first, top_last = first_hi - width + 1, last_hi - width + 1
    if top_first < first_lo or top_last < last_lo:
        return False  # an empty zone holds no start
    in_first = (2 << top_first) - (1 << first_lo)
    in_last = (2 << top_last) - (1 << last_lo)
    firsts = starts & in_first
    if not firsts:
        return False
    if max_gap < width:  # no hop: only the first zone is reachable
        return firsts & in_last != 0
    s0 = (firsts & -firsts).bit_length() - 1
    live = starts >> s0 << s0 & (2 << top_last) - 1
    smear = _smear(live, 1, max_gap - width + 1)  # OR of live << j, j <= max_gap - width
    if live & ~(in_first | smear << width) == 0:
        return live & in_last != 0
    return _sweep_chain(elements_of(starts), width, max_gap,
                        first_lo, first_hi, last_lo, last_hi)


def _sweep_chain(starts: tuple[int, ...], width: int, max_gap: int,
                 first_lo: int, first_hi: int,
                 last_lo: int, last_hi: int) -> bool:
    # Starts ascend, so one left-to-right sweep settles reachability: a
    # run at x continues a chain iff some reachable start lies in
    # [x - max_gap, x - width], and the least reachable start not below
    # x - max_gap only moves right as x does.
    reach: list[int] = []
    lo = 0  # reach[:lo] are too far behind every start still to come
    for x in starts:
        while lo < len(reach) and reach[lo] < x - max_gap:
            lo += 1
        ok = (first_lo <= x and x + width - 1 <= first_hi) \
            or (lo < len(reach) and reach[lo] <= x - width)
        if ok:
            if last_lo <= x and x + width - 1 <= last_hi:
                return True
            reach.append(x)
    return False


def validate_partition_spec(spec: Partition3Spec) -> list[SpecViolation]:
    """Check every spec invariant; an empty list means the spec is valid."""
    out: list[SpecViolation] = []
    m = spec.m
    if m < MIN_WINDOW_M:
        out.append(SpecViolation(
            "m-range", (m,), f"m must be at least {MIN_WINDOW_M}, got {_num(m)}"))
        return out

    overlap = spec.m1 & spec.m2
    if len(overlap):
        out.append(SpecViolation(
            "disjointness", overlap.elements,
            f"m1 and m2 share {len(overlap)} element(s)"))

    window = middle_window(m)
    mismatch = (spec.m1 | spec.m2) ^ window
    if len(mismatch):
        out.append(SpecViolation(
            "coverage", mismatch.elements,
            "m1 u m2 differs from the middle window at these positions"))

    if not _chain_exists(spec.m1, 2, 39, 66, 101, 24 + m, 59 + m):
        out.append(SpecViolation(
            "m1-pair-chain", elements_of(_run_bits(spec.m1.bits, 2)),
            "no chain of consecutive-element pairs spans the window "
            "(starts <= 39 apart, first pair in {66..101}, "
            f"last pair in {{{24 + m}..{59 + m}}})"))

    if not _chain_exists(spec.m2, 3, 40, 66, 105, 20 + m, 59 + m):
        out.append(SpecViolation(
            "m2-triplet-chain", elements_of(_run_bits(spec.m2.bits, 3)),
            "no chain of consecutive-element triplets spans the window "
            "(starts <= 40 apart, first triplet in {66..105}, "
            f"last triplet in {{{20 + m}..{59 + m}}})"))
    return out


def partition3(spec: Partition3Spec) -> Partition3Result:
    """Assemble the three-part split of {1,...,124+m} from a valid spec.

    Part one is low anchor 1, bridge 1, spec.m1, bridge 1 moved up by
    m + 39 and high anchor 1 moved up by m + 84; part two takes the other
    blocks and spec.m2; part three is the fixed center set. Raises
    ConstraintViolationError on an invalid spec.
    """
    if violations := validate_partition_spec(spec):
        raise ConstraintViolationError(violations)
    return _assemble(spec)


def _assemble(spec: Partition3Spec) -> Partition3Result:
    m = spec.m

    a1 = LOW_BLOCK_1 | BRIDGE_1 | spec.m1 | BRIDGE_1.shift(m + 39) | HIGH_BLOCK_1.shift(m + 84)
    a2 = LOW_BLOCK_2 | BRIDGE_2 | spec.m2 | BRIDGE_2.shift(m + 39) | HIGH_BLOCK_2.shift(m + 84)

    span = 124 + m
    # forced by construction; cheap to confirm
    shared = (a1 & a2) | (a1 & CENTER_SET) | (a2 & CENTER_SET)
    if len(shared):
        raise ConstraintViolationError([SpecViolation(
            "disjointness", shared.elements,
            "the assembled parts share these positions")])
    mismatch = (a1 | a2 | CENTER_SET) ^ IntSet.from_bits(_smear(2, 1, span))
    if len(mismatch):
        raise ConstraintViolationError([SpecViolation(
            "coverage", mismatch.elements,
            f"the assembled parts differ from {{1..{span}}} at these positions")])
    return Partition3Result(a1, a2, CENTER_SET, span)


def default_blocks(m: int) -> Partition3Spec:
    """Canonical valid window division for any m >= 21.

    Pair starts sit on the grid 66 + 30t, shifted right past the center
    set, clipped to the window; M2 takes the rest. Raises
    ConstraintViolationError if the result fails validation.
    """
    if _require_int(m, "default_blocks m") < MIN_WINDOW_M:
        raise InvalidParameterError(f"default_blocks needs m >= 21, got {_num(m)}")
    window = middle_window(m)
    first = 66
    while (CENTER_SET.bits >> first) & 3:  # the pair {first, first+1} touches the center set
        first += 1
    # the later pairs, past the center set (module docstring)
    count = (m - 8) // 30
    grid = _smear(1 << 96, 30, count) * 3 if count else 0
    m1 = IntSet.from_bits(3 << first | grid)
    spec = Partition3Spec(m, m1, window - m1)
    if violations := validate_partition_spec(spec):
        raise ConstraintViolationError(violations)
    return spec
