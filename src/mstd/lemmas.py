"""Structural conditions that force a set to be not sum-dominant.

Both checks look only at the gap sequence of A (consecutive differences
of the sorted elements), so they never touch the quadratic-size sumset:
both read it off the mask in a few whole-mask operations, ms_condition2
from the run starts and ends as infer_block_gap does. Each returns a
LemmaVerdict: applies=True means the hypothesis holds and the set is
guaranteed not sum-dominant; applies=False says nothing either way.

ms_condition1: if every gap is at most 2, then |A+A| <= |A-A|. With max
element M and min 0, A-A realizes every magnitude that A+A can miss
often enough that sums never pull ahead; small gaps leave no room for
the asymmetry sum-dominance needs.

ms_condition2: if every gap is either 1 or m, and the first and last
maximal runs of unit gaps each contain at least m-1 unit steps, then A
is not sum-dominant. A set whose gaps are all m (no unit runs at all)
is an arithmetic progression and the condition applies vacuously.

new_sums_on_extend measures the marginal cost of growing a set: how
many sums (x + a for a in A u {x}) are new when x joins A. Extending
an AP {0..n-1} by the next term always adds exactly 2.
"""

from typing import NamedTuple

from .core import IntSet, UNIVERSE_CAP, _num, _require_int, _require_set, _smear, sumset_bits
from .errors import EmptySetError, InvalidParameterError, UniverseOverflowError

NOT_SUM_DOMINANT = "not-sum-dominant"


class ArithProg(NamedTuple("ArithProg", [("start", int), ("diff", int), ("length", int)])):
    """Arithmetic progression start, start+diff, ..., start+(length-1)*diff."""

    __slots__ = ()

    def __new__(cls, start: int, diff: int, length: int):
        if _require_int(start, "start") < 0:
            raise InvalidParameterError(f"start {_num(start)} is negative")
        if _require_int(diff, "diff") < 1:
            raise InvalidParameterError(f"diff {_num(diff)} is not positive")
        if _require_int(length, "length") < 1:
            raise InvalidParameterError(f"length {_num(length)} is not positive")
        return super().__new__(cls, start, diff, length)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.diff

    def expand(self) -> IntSet:
        # cap check before materializing; length can be huge
        if self.last >= UNIVERSE_CAP:
            raise UniverseOverflowError(
                f"progression reaches {_num(self.last)}, beyond the cap {UNIVERSE_CAP}"
            )
        return IntSet.from_bits(_smear(1, self.diff, self.length) << self.start)


class LemmaVerdict(NamedTuple):
    """Outcome of a structural check.

    applies=True carries the guarantee string; applies=False carries
    None and promises nothing about the set.
    """

    applies: bool
    guarantee: str | None = None


_HOLDS = LemmaVerdict(True, NOT_SUM_DOMINANT)
_NO_CLAIM = LemmaVerdict(False, None)


def _one_gap(bits: int) -> int | None:
    # the value of every gap other than 1, 0 if none, None if they differ: the
    # gaps are all g iff the run ends but the last, moved up by g, are the run
    # starts but the first, and g is the first such gap, below max(A)
    starts, ends = bits & ~(bits << 1), bits & ~(bits >> 1)  # of the runs
    starts &= starts - 1
    ends ^= 1 << ends.bit_length() - 1
    g = (starts & -starts).bit_length() - (ends & -ends).bit_length()
    return g if ends << g == starts else None


def is_arithmetic_progression(a: IntSet) -> ArithProg | None:
    """Recognize A as an AP, or return None.

    Singletons are APs of length 1 with diff 1 by convention. The diff is
    the value of every gap other than 1, as infer_block_gap reads it, or 1
    if there is none; a gap of 1 beside a larger one refutes it.
    """
    if not _require_set(a).bits:
        raise EmptySetError("empty set is not a progression")
    d = _one_gap(a.bits)
    if d is None or d and a.bits & a.bits >> 1:
        return None
    return ArithProg(a.min, d or 1, len(a))


def ms_condition1(a: IntSet) -> LemmaVerdict:
    """Gap condition: every consecutive gap at most 2.

    Applying sets satisfy |A+A| <= |A-A|, i.e. are not sum-dominant.
    Singletons apply vacuously.
    """
    if not _require_set(a).bits:
        raise EmptySetError("cannot check the empty set")
    # a gap of 3 or more leaves some x in [min, max] with neither x nor
    # x + 1 in A, and gaps of at most 2 leave none
    cover = (a.bits | a.bits >> 1) >> a.min  # bit x - min: x or x + 1 in A
    if cover & (cover + 1) == 0:  # every bit up to max - min
        return _HOLDS
    return _NO_CLAIM


def ms_condition2(a: IntSet, m: int) -> LemmaVerdict:
    """Two-valued gap condition with block gap m >= 2.

    Applies when every gap is 1 or m and the first and last maximal
    runs of unit gaps each have length at least m-1. A pure-m gap
    sequence (no unit runs) applies vacuously: the set is an AP.
    Applying sets are not sum-dominant.
    """
    if not _require_set(a).bits:
        raise EmptySetError("cannot check the empty set")
    if _require_int(m, "block gap m") < 2:
        raise InvalidParameterError(f"block gap m={_num(m)} must be at least 2")
    bits = a.bits
    if _one_gap(bits) not in (0, m):  # m is compared, never shifted by
        return _NO_CLAIM
    # the first and the last run of unit gaps span the lowest and the highest run of 2+ elements
    starts, ends = bits & ~(bits << 1) & bits >> 1, bits & ~(bits >> 1) & bits << 1
    if not starts or min((ends & -ends).bit_length() - (starts & -starts).bit_length(),
                         ends.bit_length() - starts.bit_length()) >= m - 1:
        return _HOLDS
    return _NO_CLAIM


def infer_block_gap(a: IntSet) -> int | None:
    """The unique gap value other than 1, if exactly one exists."""
    if not _require_set(a).bits:
        raise EmptySetError("empty set has no gaps")
    return _one_gap(a.bits) or None


def new_sums_on_extend(base: IntSet, x: int) -> int:
    """Count sums gained when x joins base.

    Returns |B+B| - |A+A| for B = A u {x}. The new sums are exactly
    {x + b : b in B} minus the old sumset, so one extra shift on top of
    sumset_bits counts them. x must be a fresh nonnegative element
    below the universe cap.
    """
    if not _require_set(base).bits:
        raise EmptySetError("cannot extend the empty set")
    if _require_int(x, "extension point") < 0:
        raise InvalidParameterError(f"extension point {_num(x)} is negative")
    if x >= UNIVERSE_CAP:
        raise UniverseOverflowError(f"extension point {_num(x)} is beyond the cap")
    if x in base:
        raise InvalidParameterError(f"extension point {x} is already in the set")
    old = sumset_bits(base.bits)
    new = old | ((base.bits | (1 << x)) << x)
    return new.bit_count() - old.bit_count()
