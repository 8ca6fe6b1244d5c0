"""Finite integer sets and their sum/difference arithmetic.

For a finite set A of nonnegative integers the sumset and difference set
are

    A+A = {a + b : a, b in A}
    A-A = {a - b : a, b in A}

A-A is symmetric about 0, so it is stored as the set of nonnegative
magnitudes D = {|a - b|} and its true cardinality recovered as
2*|D \\ {0}| + 1 = 2*|D| - 1 (0 is always present for nonempty A). A is

    sum-dominant        if |A+A| > |A-A|
    balanced            if |A+A| = |A-A|
    difference-dominant if |A+A| < |A-A|

with excess := |A+A| - |A-A|. Sums are "harder to make" than differences
(a+b gives one sum, a-b gives two differences), so sum-dominant sets are
rare; the interesting computations are exact counts over many candidate
sets.

The canonical machine representation is a dense bitmask: a set A with
max(A) = M becomes the integer sum of 2**a over a in A, i.e. bit a is set
iff a is in A. Then for each a in A

    bits(A) << a   contributes exactly the sums {a + b : b in A}
    bits(A) >> a   contributes the magnitudes {b - a : b in A, b >= a}

so OR-accumulating the shifted copies yields bits(A+A) and bits(D), and
popcounts give the cardinalities. This does big-integer operations on
~2M-bit words instead of |A|^2 Python-level pair loops, which is what
makes the exhaustive searches in mstd.search feasible in pure Python.

sum_diff_cards on fewer than _SMALL_CARD elements, the search engines'
sets, takes one shift per element. Every other call takes one per
maximal run of consecutive elements: a run [u, u+L-1] contributes
smear << u to the sums and smear >> (u+L-1) to the magnitudes, where
smear ORs bits(A) << j over j < L. Each distinct run length builds its
smear by doubling, in about log2(L) shift-ORs. The runs are read off
bits ^ (bits << 1), whose set bits alternate between a run's start and
the position just past its end. So a set of R runs costs R passes plus
the doublings: the k_set family is five runs for every m, while a set
with no two consecutive elements costs |A| passes, one per element.

Shift-OR costs R passes over M bits, which is quadratic for dense sets
with many runs (a random set of density p has about p(1-p)M of them).
Such sets go through a second kernel, Kronecker substitution: write A
as the polynomial A(x) = sum of x**a, evaluate it at x = 10**w, and the
exact decimal product A(x)*A(x) (or A(x)*x**M*A(1/x) for differences)
carries the coefficient of x**s, the number of ways to write s, in its
w-digit block s. With 10**w > |A| no block overflows into the next, and
the nonzero blocks are the support. libmpdec multiplies numbers this
long with a number-theoretic transform, so one product costs about
M*w*log(M) instead of R*M. The decimal context traps Inexact and
Rounded, so a product can never round silently, and the decimal module
is imported only when the first product runs.

A set of at least _COVER_RUNS runs first tries a third kernel, the
cover, which rests on the fact that only the fringes of A+A and A-A are
in doubt for a dense set (Martin and O'Bryant, "Many sets have more sums
than differences", 2007). It takes the elements e_0 < ... < e_(n-1) of
A from both ends in turn, e_0, e_(n-1), e_1, e_(n-2), ...: a low element
a adds bits(A) << a and bits(A) >> a, a high element b adds bits(A) << b
and rev >> (top - b), where rev is A reflected about top = max(A), bit
top - x for each x in A, so that the last adds the magnitudes {b - x}.
Let lo and hi be the least and the greatest element not yet taken.

    Exact zones. A sum x + y, x <= y, below 2lo has x < lo, so x was
    taken and bits(A) << x holds it; one above 2hi has y > hi, so y was
    taken. A magnitude y - x above hi - lo has x < lo or y > hi, and the
    shift by x, or rev's shift by y, holds it. So outside the sums in
    [2lo, 2hi] and the magnitudes in [0, hi - lo] the masks are exact,
    and inside them every set position is a true sum or magnitude.

    Per-position test. A position s left unset in the sum zone is a sum
    iff bits(A) & (rev shifted by s - top) is nonzero (its bit x says
    s - x is in A), and a magnitude t iff bits(A) & (bits(A) >> t) is.

At 8, 16, 32, ... passes (one pass is one element taken) the cover
counts the unset positions of both zones. If they number no more than
the passes so far, it tests each one and returns: the tests cost no
more than the passes did. If a doubling of the passes has not halved
them, it gives up and the kernels below run as if it had not been
tried; that happens where a zone keeps a hole that no end element
fills, such as the evens, a residue class or an empty middle, and in a
random set below density p ~ 0.15. A sum below max(A) comes only from
the bottom and one above it only from the top, so a random set of
density p leaves a sum unset after c passes with chance about
(1-p)**(c/2), a magnitude about (1-p)**c: the count falls geometrically
and half-full sets finish in 32-64 passes at every M: sum_diff_cards
takes ~13 ms at M = 10**6 (the product 1.3 s), and classify ~0.3 s and
~34 MB above its baseline at M = 2**24 - 1 (the product 28 s and
540 MB). Giving up costs 16 passes and two counts, which the
_COVER_RUNS floor keeps to about a quarter of the passes shift-OR then
makes, and far less than a product.

Which of the other two kernels runs is decided per set from its run
count R, |A| and M: the product runs when R >= weight * w * (bit length
of M), with weights fitted from measurements (_SUM_WEIGHT, _DIFF_WEIGHT);
they choose only between these two. The product takes over near
R ~ 4500-12000 for sums and ~15000-40000 for differences as M goes from
2**14 to 2**22, so wide sparse sets and sets of a few long runs stay on
shift-OR. Shift-OR's memory is a few masks of 2M bits: sum_diff_cards
on the k_set mask at M = 2**24 - 1 takes ~0.1 s and ~25 MB above its
baseline. The product's memory is the operands and the transform
buffers, about 3 bytes per decimal digit for a sumset and 5 for a
difference set (the result's digits are read a million blocks at a
time). A dense set at M = 2**22 (w = 7) peaks ~22 and ~35 bytes
per universe position above its baseline, so near 2**24 (w = 8) a
sumset takes about 400 MB and a difference set about 650 MB.

Packing and unpacking are linear in M as well: elements_of reads the
binary digit string of the mask, and bits_of fills a digit buffer and
parses it, once the set has enough elements for that to beat OR-ing
single bits. A mask with fewer than one element per _SPARSE_RATIO bit
positions is unpacked from its bytes instead: bytes.find skips the zero
bytes at C speed, so the Python-level work is per element, not per bit.

Elements must lie in [0, UNIVERSE_CAP); beyond that the dense masks stop
being a sensible encoding and construction raises UniverseOverflowError.

Gap notation describes a set by its first element and the run of
consecutive gaps: {2, 3, 9, 10, 15} is written "(2 | 1, 6, 1, 5)" and a
singleton {7} is "(7 |)". Parsing and formatting are exact inverses on
canonical text. Both notations are read as one list of tokens: after any
whitespace, a token is an optionally signed decimal integer or any other
single character, and the end of the text is the empty token. Each
parser is its grammar over that list, and a ParseError's offset is where
the offending token starts, also for a number with more digits than
int() converts.
"""

from __future__ import annotations

import enum
import math
import re
from collections import defaultdict
from itertools import compress, count, islice
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DegenerateSetError,
    EmptySetError,
    InvalidParameterError,
    ParseError,
    UniverseOverflowError,
)

UNIVERSE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# bitmask kernel


# Fitted on a 2-core x86-64 host, Python 3.11, on random sets of density
# 1/128 to 1/2 at M from 2**13 to 2**20: the product beats one shift-OR per
# run once the runs number >= weight * w * (bit length of M), w the digits
# of |A|. Parity sits near weights 45-75 (sums) and 75-120 (differences)
# at M <= 2**14, and near 75-125 and 185-325 from 2**15 up, where these
# weights pick the faster kernel at every point measured. Right shifts
# are cheaper than left ones, hence the larger weight for differences.
_SUM_WEIGHT = 75
_DIFF_WEIGHT = 250
# below this many elements the product never pays, whatever M is
_SMALL_CARD = 1024
# below this many runs shift-OR is too cheap to risk the cover's first 16
# passes on, so k_set and every search-sized set keep it
_COVER_RUNS = 64
# below this many elements OR-ing single bits beats the digit buffer
_PACK_MIN_CARD = 512
# product blocks turned into bits per step, which bounds the digit string
_CHUNK_BLOCKS = 1 << 20

# below one element per this many bit positions, elements_of skips zero
# bytes instead of reading every digit (parity near 16 at M = 2**24)
_SPARSE_RATIO = 32

_UNPACK = bytes.maketrans(b"01", b"\x00\x01")
_ANY_BIT = bytes([0] + [1] * 255)
# _BYTE_BITS[v] holds the set bits of the byte v, ascending
_BYTE_BITS = [()]
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]
_NONZERO = bytes.maketrans(b"23456789", b"11111111")


def bits_of(elements: Iterable[int]) -> int:
    """Pack an iterable of ints in [0, UNIVERSE_CAP) into a dense bitmask."""
    try:
        small = len(elements) < _PACK_MIN_CARD
    except TypeError:  # a one-shot iterable
        elements = _require_iterable(elements, "set elements")
        small = len(elements) < _PACK_MIN_CARD
    if not elements:
        return 0
    # checked before packing: a non-int has no bit, and a huge element
    # would allocate its whole mask
    if set(map(type, elements)) != {int}:
        for e in elements:
            if not isinstance(e, int) or isinstance(e, bool):
                raise InvalidParameterError(f"set element {e!r} is not an int")
    if (low := min(elements)) < 0:
        raise InvalidParameterError(f"set element {_num(low)} is negative")
    if (top := max(elements)) >= UNIVERSE_CAP:
        least = min(e for e in elements if e >= UNIVERSE_CAP)
        raise UniverseOverflowError(
            f"element {_num(least)} is at or beyond the universe cap {UNIVERSE_CAP}")
    if small:
        bits = 0
        for e in elements:
            bits |= 1 << e
        return bits
    digits = bytearray(b"0") * (top + 1)
    for e in elements:
        digits[e] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def _progression_bits(start: int, diff: int, length: int) -> int:
    # mask of start, start+diff, ..., start+(length-1)*diff, length >= 1, in
    # about log2(length) shift-ORs that each copy the block built so far
    bits, have = 1, 1  # the terms 0, diff, ..., (have-1)*diff
    while 2 * have <= length:
        bits |= bits << have * diff
        have *= 2
    return (bits | bits << (length - have) * diff) << start


def _num(value) -> str:
    # a value as a message shows it; an int too long for str() shows its length
    try:
        return str(value)
    except ValueError:
        digits = int(abs(value).bit_length() * 0.30103)  # the count, or one short
        digits += abs(value) >= 10 ** digits
        return f"{'-' * (value < 0)}<int of {digits} digits>"


def _require_int(value, what: str) -> int:
    # a parameter that must be an int; a bool is not one
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{what} must be an int, not {type(value).__name__}")
    return value


def _within_cap(top: int, what: str) -> None:
    # from the parameter, before a mask or a walk reaching `top` is built
    if top >= UNIVERSE_CAP:
        raise UniverseOverflowError(
            f"{what} reaches {_num(top)}, at or beyond the cap {UNIVERSE_CAP}")


def _require_iterable(value, what: str) -> tuple:
    # a parameter that must be iterable, as a tuple
    try:
        items = iter(value)
    except TypeError:
        raise InvalidParameterError(
            f"{what} must be an iterable, not {type(value).__name__}") from None
    return tuple(items)


def _require_mask(bits: int) -> int:
    # a nonnegative int; an exact int skips the costlier _require_int
    if type(bits) is not int:
        _require_int(bits, "bitmask")
    if bits < 0:
        raise InvalidParameterError("bitmask is negative")
    return bits


def elements_of(bits: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of elements."""
    n = _require_mask(bits).bit_length()
    if bits.bit_count() * _SPARSE_RATIO < n:
        raw = bits.to_bytes((n + 7) // 8, "little")
        nonzero = raw.translate(_ANY_BIT)
        out = []
        i = nonzero.find(1)
        while i >= 0:
            out += [8 * i + b for b in _BYTE_BITS[raw[i]]]
            i = nonzero.find(1, i + 1)
        return tuple(out)
    # through a list: tuple(compress(...)) itself left ~4 MB more peak RSS
    # behind after the pair scans
    return tuple([*compress(count(), bin(bits)[:1:-1].encode().translate(_UNPACK))])


def _runs(bits: int) -> int:
    # the maximal runs of consecutive elements, counted by their starts
    return (bits & ~(bits << 1)).bit_count()


def _product_pays(bits: int, weight: int) -> bool:
    # shift-OR makes one pass over the mask per run, the product ~w*log(M) per bit
    runs = _runs(bits)
    return 0 < runs >= weight * len(str(bits.bit_count())) * bits.bit_length().bit_length()


def _ascending(bits: int) -> Iterator[int]:
    # the elements of a mask from the least up, unpacked a doubling window
    # at a time, so that taking the first few reads only the low bits
    at, width, n = 0, 64, bits.bit_length()
    while at < n:
        window = (bits & ((1 << at + width) - 1)) >> at
        yield from (at + e for e in elements_of(window))
        at += width
        width *= 2


def _cover(bits: int, sums: bool, mags: bool) -> tuple[int, int] | None:
    """(bits(A+A), bits(D)) from shifts by the elements at A's two ends, or None.

    The third kernel of the module docstring: it takes elements from the
    bottom and the top of A in turn, and at 8, 16, 32, ... passes either
    tests the few undecided positions one by one and returns, or gives
    up once a doubling of the passes has not halved them.
    """
    top = bits.bit_length() - 1
    rev = int(bin(bits)[:1:-1], 2)  # bit top - x for each x in A
    low = _ascending(bits)
    high = (top - x for x in _ascending(rev))
    lo, hi = next(low), next(high)  # the least and the greatest element not yet taken
    s = d = 0
    passes, check, before = 0, 8, None
    while True:
        while passes < check and lo <= hi:
            if passes % 2 == 0:  # x from the bottom adds the magnitudes {y - x}
                x, lo = lo, next(low, top + 1)
                if mags:
                    d |= bits >> x
            else:  # and from the top {x - y}
                x, hi = hi, next(high, -1)
                if mags:
                    d |= rev >> top - x
            if sums:
                s |= bits << x
            passes += 1
        if lo > hi:  # every element taken
            return s, d
        # undecided: the sums in [2lo, 2hi] and the magnitudes in [0, hi-lo] not yet set
        open_s = ~(s >> 2 * lo) & (2 << 2 * (hi - lo)) - 1 if sums else 0
        open_d = ~d & (2 << hi - lo) - 1 if mags else 0
        left = open_s.bit_count() + open_d.bit_count()
        if left <= passes:
            for t in elements_of(open_s):
                shift = 2 * lo + t - top  # rev shifted by it has bit 2lo+t-y for y in A
                if bits & (rev << shift if shift >= 0 else rev >> -shift):
                    s |= 1 << 2 * lo + t
            for t in elements_of(open_d):
                if bits & bits >> t:
                    d |= 1 << t
            return s, d
        if before is not None and 2 * left > before:
            return None
        before, check = left, 2 * check


def _kronecker(bits: int, reflect: bool) -> int:
    """Support of A(x)**2, or of A(x)*x**M*A(1/x) at x**M and above.

    The first is bits(A+A) and the second bits(D), computed by one exact
    decimal product in w-digit blocks (see the module docstring).
    """
    import decimal

    n = bits.bit_length()
    w = len(str(bits.bit_count()))  # 10**w > |A| >= every coefficient
    traps = [decimal.Inexact, decimal.Rounded,
             decimal.InvalidOperation, decimal.Overflow]
    ctx = decimal.Context(prec=2 * n * w, Emax=decimal.MAX_EMAX, traps=traps)
    # shifting by 0 in this context keeps the lowest _CHUNK_BLOCKS blocks
    cut = decimal.Context(prec=_CHUNK_BLOCKS * w, Emax=decimal.MAX_EMAX, traps=traps)

    def operand(binary: str) -> "decimal.Decimal":
        # the 0/1 digits, most significant first, each padded to a w-digit block
        blocks = bytearray(b"0") * (n * w)
        blocks[w - 1::w] = binary.encode()
        text = blocks.decode()
        del blocks
        return decimal.Decimal(text)

    p = operand(bin(bits)[2:])
    q = operand(bin(bits)[:1:-1]) if reflect else p
    prod = ctx.multiply(p, q)
    del p, q
    low = n - 1 if reflect else 0  # magnitudes 0..n-1 sit in blocks n-1 and up
    out = 0
    for at in range(low, 2 * n - 1, _CHUNK_BLOCKS):
        # the digit string ends on a block boundary, so the i-th digit of
        # every block, read with stride w, is a binary numeral over blocks;
        # zfill gives every stride a digit when the chunk is one short block
        digits = str(cut.shift(ctx.shift(prod, -at * w), 0)).zfill(w)
        for i in range(w):
            out |= int(digits[i::w].encode().translate(_NONZERO), 2) << (at - low)
    return out


def _shift_or(bits: int, sums: bool, mags: bool) -> tuple[int, int]:
    """(bits(A+A), bits(D)) by one shift per maximal run of A, 0 where not asked for.

    The run lengths go shortest first, so each length's smear (see the
    module docstring) grows from the last one's by doubling.
    """
    # the bits where A changes, bits ^ bits << 1, alternate between a run's
    # start and the position just past its end
    edges = elements_of(bits ^ bits << 1)
    starts_by_length = defaultdict(list)
    for u, stop in zip(edges[::2], edges[1::2]):
        starts_by_length[stop - u].append(u)
    s = d = 0
    smear, width = bits, 1  # smear ORs the shifts 0..width-1
    for length in sorted(starts_by_length):
        while 2 * width <= length:
            smear |= smear << width
            width *= 2
        grown = smear | smear << (length - width)  # the shifts 0..length-1
        starts = starts_by_length[length]
        if sums:
            for u in starts:
                s |= grown << u
        if mags:
            grown >>= length - 1  # so that >> u shifts by the run's last element
            for u in starts:
                d |= grown >> u
    return s, d


def _sums_and_mags(bits: int, sums: bool, mags: bool) -> tuple[int, int]:
    # bits(A+A) and bits(D), 0 where not asked for: from the cover if it
    # settles them, else each from the kernel that pays for this set, the
    # runs unpacked once for both
    if _runs(bits) >= _COVER_RUNS and (both := _cover(bits, sums, mags)):
        return both
    run_sums = sums and not _product_pays(bits, _SUM_WEIGHT)
    run_mags = mags and not _product_pays(bits, _DIFF_WEIGHT)
    s, d = _shift_or(bits, run_sums, run_mags) if run_sums or run_mags else (0, 0)
    if sums and not run_sums:
        s = _kronecker(bits, reflect=False)
    if mags and not run_mags:
        d = _kronecker(bits, reflect=True)
    return s, d


def sumset_bits(bits: int) -> int:
    """Bitmask of A+A from the bitmask of A (0 for the empty set)."""
    return _sums_and_mags(_require_mask(bits), sums=True, mags=False)[0]


def diff_bits(bits: int) -> int:
    """Bitmask of the difference magnitudes of A (0 for the empty set)."""
    return _sums_and_mags(_require_mask(bits), sums=False, mags=True)[1]


def sum_diff_cards(bits: int, elements: tuple[int, ...] | None = None) -> tuple[int, int]:
    """Cardinalities (|A+A|, |A-A|) straight from a bitmask.

    Parameters
    ----------
    bits : int
        Dense bitmask of a nonempty set A.
    elements : tuple of int, optional
        A shortcut for callers that already hold the elements of A:
        small sets then skip the one unpacking pass.

    Returns
    -------
    (int, int)
        |A+A| and the signed-difference cardinality 2*popcount(D) - 1.
        The empty mask raises EmptySetError, a negative one
        InvalidParameterError.
    """
    if not _require_mask(bits):
        raise EmptySetError("empty set has no sum or difference set")
    # counted, not unpacked: a large mask is never needed as elements
    if (bits.bit_count() if elements is None else len(elements)) >= _SMALL_CARD:
        s, d = _sums_and_mags(bits, sums=True, mags=True)
        return s.bit_count(), 2 * d.bit_count() - 1
    s = 0
    d = 0
    for e in elements_of(bits) if elements is None else elements:
        s |= bits << e
        d |= bits >> e
    return s.bit_count(), 2 * d.bit_count() - 1


# ---------------------------------------------------------------------------
# set carrier


def _set_operator(op):
    # IntSet op IntSet on the masks; any other operand is handed back to
    # Python, which raises TypeError, as it does for ==
    def method(self, other):
        if isinstance(other, IntSet):
            return IntSet.from_bits(op(self._bits, other._bits))
        return NotImplemented
    return method


class IntSet:
    """Immutable finite set of nonnegative integers below UNIVERSE_CAP.

    Holds only the dense bitmask, on which all arithmetic in this package
    runs; elements and iteration unpack it on each call, linear in max(A).
    Supports len, membership, equality/hash, and the set operators | & - ^.
    """

    __slots__ = ("_bits",)

    def __init__(self, elements: Iterable[int] = ()):
        self._bits = bits_of(elements)

    @classmethod
    def from_bits(cls, bits: int) -> "IntSet":
        """Wrap a dense bitmask as an IntSet."""
        if _require_mask(bits).bit_length() > UNIVERSE_CAP:
            raise UniverseOverflowError("bitmask extends beyond the universe cap")
        self = object.__new__(cls)
        self._bits = bits
        return self

    @property
    def elements(self) -> tuple[int, ...]:
        return elements_of(self._bits)

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def min(self) -> int:
        if not self._bits:
            raise EmptySetError("empty set has no minimum")
        return (self._bits & -self._bits).bit_length() - 1

    @property
    def max(self) -> int:
        if not self._bits:
            raise EmptySetError("empty set has no maximum")
        return self._bits.bit_length() - 1

    @property
    def diameter(self) -> int:
        """max - min; needs at least one element."""
        return self.max - self.min

    def shift(self, offset: int) -> "IntSet":
        """Translate every element by offset (result must stay in [0, UNIVERSE_CAP))."""
        _require_int(offset, "shift offset")
        bits = self._bits
        if bits and self.min + offset < 0:
            raise InvalidParameterError(f"shift by {_num(offset)} goes negative")
        if bits and self.max + offset >= UNIVERSE_CAP:  # before a huge mask is built
            raise UniverseOverflowError(f"shift by {_num(offset)} reaches the universe cap")
        return IntSet.from_bits(bits << offset if offset >= 0 else bits >> -offset)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(elements_of(self._bits))

    def __contains__(self, x: object) -> bool:
        # a non-int is never a member, and neither is a negative int
        return isinstance(x, int) and x >= 0 and self._bits >> x & 1 == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntSet):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    __or__ = _set_operator(int.__or__)
    __and__ = _set_operator(int.__and__)
    __sub__ = _set_operator(lambda a, b: a & ~b)
    __xor__ = _set_operator(int.__xor__)

    def isdisjoint(self, other: "IntSet") -> bool:
        if not isinstance(other, IntSet):
            raise InvalidParameterError(
                f"isdisjoint wants an IntSet, not {type(other).__name__}")
        return self._bits & other._bits == 0

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self.elements))}}})"


# ---------------------------------------------------------------------------
# classification


class Kind(enum.Enum):
    SUM_DOMINANT = "sum-dominant"
    BALANCED = "balanced"
    DIFFERENCE_DOMINANT = "difference-dominant"


class Classification(NamedTuple):
    kind: Kind
    sum_card: int
    diff_card: int

    @property
    def excess(self) -> int:
        return self.sum_card - self.diff_card


def sumset(a: IntSet) -> IntSet:
    """The sumset A+A."""
    if len(a) == 0:
        raise EmptySetError("sumset of the empty set")
    return IntSet.from_bits(sumset_bits(a.bits))


def diffset(a: IntSet) -> tuple[IntSet, int]:
    """Difference magnitudes and the signed cardinality |A-A|.

    Returns
    -------
    (IntSet, int)
        The set {|a - b| : a, b in A} of nonnegative magnitudes, and
        2*|magnitudes| - 1, the cardinality of the full signed set A-A.
    """
    if len(a) == 0:
        raise EmptySetError("difference set of the empty set")
    mags = diff_bits(a.bits)
    return IntSet.from_bits(mags), 2 * mags.bit_count() - 1


def classify(a: IntSet) -> Classification:
    """Classify A as sum-dominant, balanced, or difference-dominant."""
    if len(a) == 0:
        raise EmptySetError("cannot classify the empty set")
    sc, dc = sum_diff_cards(a.bits)
    if sc > dc:
        kind = Kind.SUM_DOMINANT
    elif sc < dc:
        kind = Kind.DIFFERENCE_DOMINANT
    else:
        kind = Kind.BALANCED
    return Classification(kind, sc, dc)


def symmetry_center(a: IntSet) -> int | None:
    """Doubled center c with A = c - A, or None.

    A set symmetric about x (possibly half-integral) satisfies
    A = (2x) - A; the returned c is 2x = min(A) + max(A) when the
    reflection test passes. Symmetric sets are always balanced.
    """
    if len(a) == 0:
        raise EmptySetError("empty set has no symmetry center")
    # A = c - A iff the mask shifted down to bit 0 reads the same reversed
    digits = bin(a.bits >> a.min)
    return a.min + a.max if digits[2:] == digits[:1:-1] else None


def normalize_affine(a: IntSet) -> IntSet:
    """Affine-canonical form: translate min to 0, divide out the gap gcd.

    Classification is invariant under x -> (x - min)/g, so normalized
    sets are the right keys for dedup in exhaustive scans. Needs at
    least two elements (a singleton has no gaps to scale).
    """
    if len(a) == 0:
        raise EmptySetError("cannot normalize the empty set")
    if len(a) < 2:
        raise DegenerateSetError("normalization needs at least two elements")
    lo = a.min
    shifted = [e - lo for e in a.elements]
    g = 0
    for e in shifted:
        g = math.gcd(g, e)
    return IntSet(e // g for e in shifted)


# ---------------------------------------------------------------------------
# gap notation


class GapNotation(NamedTuple("GapNotation", [("origin", int), ("gaps", tuple)])):
    """A set as first element plus consecutive gaps: "(2 | 1, 6, 1, 5)"."""

    __slots__ = ()

    def __new__(cls, origin: int, gaps: tuple[int, ...]):
        _require_int(origin, "origin")
        gaps = _require_iterable(gaps, "gaps")
        for g in gaps:
            if _require_int(g, "gap") < 1:
                raise InvalidParameterError(f"gap {_num(g)} is not positive")
        return super().__new__(cls, origin, gaps)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates

    def to_intset(self) -> IntSet:
        if self.origin < 0:
            raise InvalidParameterError(f"origin {_num(self.origin)} is negative")
        out = [self.origin]
        for g in self.gaps:
            out.append(out[-1] + g)
        return IntSet(out)


def gaps_of(a: IntSet) -> tuple[int, ...]:
    """Consecutive gaps of a sorted nonempty set (empty tuple for singletons)."""
    if len(a) == 0:
        raise EmptySetError("empty set has no gaps")
    es = a.elements
    return tuple(es[i + 1] - es[i] for i in range(len(es) - 1))


def format_gap_notation(a: IntSet) -> str:
    """Canonical gap-notation text for a nonempty set."""
    if len(a) == 0:
        raise EmptySetError("cannot format the empty set")
    gaps = gaps_of(a)
    if not gaps:
        return f"({a.min} |)"
    return f"({a.min} | {', '.join(map(str, gaps))})"


def format_set_literal(a: IntSet) -> str:
    """Canonical brace-literal text, e.g. "{0, 1, 3}"."""
    return f"{{{', '.join(map(str, a.elements))}}}"


# after any whitespace, an optionally signed decimal integer or any other
# character; _TOKEN.findall(text) lists a text's tokens, then '' (or two
# after trailing whitespace) for its end
_TOKEN = re.compile(r"\s*(-?\d+|\S?)")


def _offset(text: str, i: int) -> int:
    # where token i starts: found again only for an error, which keeps the
    # token list a single findall
    return next(islice(_TOKEN.finditer(text), i, None)).start(1)


def _int(text: str, tokens: list[str], i: int) -> int:
    tok = tokens[i]
    try:
        return int(tok)
    except ValueError:  # not a number, or more digits than int() converts
        what = (f"integer of {len(tok.lstrip('-'))} digits is too long" if tok[-1:].isdecimal()
                else f"expected integer, found {tok!r}")
        raise ParseError(what, _offset(text, i)) from None


def parse_set_literal(text: str) -> IntSet:
    """Parse "{1, 2, 3}", "1,2,3", or "1 2 3" into an IntSet.

    Elements must be nonnegative decimal integers; separators are commas
    and/or whitespace; braces are optional but must be balanced. "{}" is
    the empty set. Raises ParseError with the byte offset of the first
    offending token.
    """
    tokens = _TOKEN.findall(text)
    if tokens[0] == "{":  # the elements run to the last '}'
        if "}" not in tokens:
            raise ParseError("unbalanced '{'", _offset(text, 0))
        end = len(tokens) - 1 - tokens[::-1].index("}")
        if tokens[end + 1]:
            raise ParseError("trailing input after '}'", _offset(text, end + 1))
    elif "}" in text:
        raise ParseError("unbalanced '}'", text.index("}"))
    else:
        end = tokens.index("")

    elems = []
    want_item = True
    for i in range(tokens[0] == "{", end):
        tok = tokens[i]
        if tok == ",":
            if want_item:
                raise ParseError("expected integer before ','", _offset(text, i))
            want_item = True
        elif tok[0] == "-":
            raise ParseError("negative elements are not allowed", _offset(text, i))
        elif tok.isdigit():
            elems.append(_int(text, tokens, i))
            want_item = False
        else:
            raise ParseError(f"unexpected token {tok!r}", _offset(text, i))
    if want_item and elems:
        raise ParseError("dangling ','", _offset(text, end))
    if tokens[end] == "" and not elems:
        raise ParseError("no elements found", 0)
    return IntSet(elems)


def parse_gap_notation(text: str) -> GapNotation:
    """Parse "(ORIGIN | GAP, GAP, ...)" or the singleton form "(ORIGIN |)".

    Gaps must be positive integers. Raises ParseError with the byte
    offset of the first offending token.
    """
    tokens = _TOKEN.findall(text)
    if tokens[0] != "(":
        raise ParseError("expected '('", _offset(text, 0))
    if tokens[1][:1] == "-":
        raise ParseError("origin must be nonnegative", _offset(text, 1))
    origin = _int(text, tokens, 1)
    if tokens[2] != "|":
        raise ParseError("expected '|'", _offset(text, 2))

    gaps = []
    want_item = True
    i = 3
    while (tok := tokens[i]) != ")":
        if not tok:
            raise ParseError("expected ')'", _offset(text, i))
        if tok == ",":
            if want_item:
                raise ParseError("expected gap before ','", _offset(text, i))
            want_item = True
        elif not want_item:
            raise ParseError("expected ',' between gaps", _offset(text, i))
        else:
            if (value := _int(text, tokens, i)) < 1:
                raise ParseError(f"gap {value} is not positive", _offset(text, i))
            gaps.append(value)
            want_item = False
        i += 1
    if want_item and gaps:
        raise ParseError("dangling ','", _offset(text, i))
    if tokens[i + 1]:
        raise ParseError("trailing input after ')'", _offset(text, i + 1))
    return GapNotation(origin, tuple(gaps))
