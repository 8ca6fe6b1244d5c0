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

sumset_bits, diff_bits and sum_diff_cards share three paths: intervals,
for a set of few runs of consecutive elements or of few runs per residue
class; the run kernel, one shift per run; and the exact decimal product,
to which the run kernel gives a kind it cannot finish cheaply.

Runs and intervals. The runs [u_i, v_i] of A are read off bits ^ (bits
<< 1), whose set bits alternate between a run's start and the position
past its end. A sum of two intervals is an interval, so A+A is the union
over i <= j of [u_i + u_j, v_i + v_j], and D the union over i >= j of
[max(0, u_i - v_j), v_i - u_j] (for i < j every difference is negative).
The spans are sorted and merged, a span joining the one before when it
starts at most one past its end; the cards count them, and a mask takes
one shift per span, or one digit buffer past _FEW_SPANS of them.

Residue classes. Many runs can be few per class mod g: the evens are one
run mod 2, Nathanson's family five mod 4. The class A_r = {x in A : x = r
mod g} maps onto C_r = {(x - r)/g} one to one, a Freiman isomorphism
(Tao and Vu, Additive Combinatorics, 2006, ch. 5). For x = g*p + r and
y = g*q + s,

    x + y = g*(p + q + (r + s)//g) + (r + s) mod g
    x - y = g*(p - q + (r - s)//g) + (r - s) mod g

with floor division, so the carry of r < s is -1. So class t of A+A is
the union over r + s = t (mod g) of C_r + C_s shifted by its carry, and
class t of D the union over r - s = t (mod g) of C_r - C_s shifted by
its carry, from quotient 0 up (g*q + t >= 0 iff q >= 0). Each is again a
union of intervals, of the runs of the classes; g = 1 is the case above.
_strides takes every class from one digit string of the mask, and the
spans of all classes are laid back into one digit buffer.

Choosing a path. Let R be the runs of A and W = M/64 the words of its
mask. Intervals are taken when R**2 < W. Otherwise, for R >= 8 and W >=
2, the _END_WINDOW bits nearest each end are read for a period: the least
g <= _END_WINDOW/4 that repeats the window past its first quarter, tried
at the first three offsets of set bits from the least one there, so a
random set fails three tests at each end. When both ends have one, g is
their lcm, and the classes mod g are taken when (their runs summed)**2 <
W; else the run kernel runs. Every g is exact, so the choice moves cost
only. On a 2-core x86-64 host, Python 3.11, random sets of R runs at M
from 2**12 to 2**24 cross over near R**2 = W to 2W, the interval path
several times faster below and the run kernel above; sum_diff_cards of
k_set(100050) takes ~30 us (the run kernel ~180 us), and at M = 2**24
that of the evens or of nathanson_set ~0.1-0.15 s and 55 MB of peak
memory (the product 39-41 s and 560 MB).

The run kernel takes one shift per run. A run [u, u+L-1] contributes
smear << u to the sums and smear >> (u+L-1) to the magnitudes, where
smear ORs bits(A) << j over j < L. The runs are read a doubling window
at a time up from min(A) and down from max(A), each window cut back to
whole runs, until the windows meet. The smear of each power of two is
built once by doubling, and that of L in [2**k, 2**(k+1)) is the one of
2**k ORed with itself shifted by L - 2**k, so R runs cost R passes, plus
one per change of run length at most.

Between windows the kernel is a cover, which rests on the fact that only
the fringes of A+A and A-A are in doubt for a dense set (Martin and
O'Bryant, "Many sets have more sums than differences", 2007). Every
element below a and from b up has been taken, in whole runs.

    Exact zones. A sum x + y, x <= y, below 2a has x < a, so x was taken
    and its run's smear holds x + y; one above 2(b-1) has y >= b, so y
    was taken. A magnitude y - x above top - a, top = max(A), has
    x <= top - (y - x) < a, so x was taken and its run's smear holds it.
    So outside the sums in [2a, 2(b-1)] and the magnitudes in
    [0, top - a] the masks are exact, and inside them every set position
    is a true sum or magnitude.

    Per-position test. A position s left unset in the sum zone is a sum
    iff bits(A) & (rev shifted by s - top) is nonzero, rev = A reflected
    about top (its bit x says s - x is in A), and a magnitude t iff
    bits(A) & (bits(A) >> t) is.

Between windows, once at least 8 runs are taken, and then twice as many
as at the last check, each kind asked for counts its unset positions in
its zone. If they number no more than the runs taken and fewer than the
runs left, it tests each one and is done: the tests cost no more than
the passes did, nor than the passes they save. If a doubling of the runs
has not halved them and the runs left reach weight * w * (bit length of
M), w the digits of |A| (_SUM_WEIGHT, _DIFF_WEIGHT), the kind is given
up to the decimal product below; otherwise it is checked again at the
next doubling. No pass is made twice. A sum below max(A) comes only
from the bottom and one above it only from the top, so a random set of
density p leaves a position unset after c runs with chance about
(1-p)**(c/2), and half-full sets finish within a few dozen runs at every
M: sum_diff_cards takes ~5 ms at M = 10**6 (the product 1.3 s), and
classify ~0.1 s and ~40 MB above its baseline at M = 2**24 - 1 (the
product 28 s and 540 MB). A kind stops halving where a zone keeps a
hole that no end fills, such as a residue class whose ends show no
period, or an empty middle, and in a random set below density p ~ 0.07;
the product then takes over near R ~ 4500-12000 runs for sums and
~15000-40000 for differences as M goes from 2**14 to 2**22, so wide
sparse sets stay on shift-OR. Shift-OR's memory is a few masks
of 2M bits.

The decimal product is Kronecker substitution: at x = 10**w > |A|, the
exact product A(x)*A(x) (or A(x)*x**M*A(1/x) for the magnitudes), A(x) =
sum of x**a, carries in its w-digit block s the number of ways to write
s, which no block overflows, so its nonzero blocks are the support.
libmpdec multiplies by a number-theoretic transform, ~M*w*log(M) in all;
the context traps Inexact and Rounded, so no product rounds silently. It
takes ~3 bytes per decimal digit for sums and 5 for magnitudes (~400 and
~650 MB near M = 2**24), the result read _CHUNK_BLOCKS blocks at a time.
decimal is imported by the first product, so a process with none skips it.

Packing and unpacking are linear in M: elements_of reads the
binary digit string of the mask, and bits_of fills a digit buffer and
parses it, once the set has enough elements for that to beat OR-ing
single bits. A mask with fewer than one element per _SPARSE_RATIO bit
positions is unpacked from its bytes instead: bytes.find skips the zero
bytes at C speed, so the Python-level work is per element, not per bit.
A range is packed from its ends, step and length by one _smear.
Three helpers map a mask in one pass: _reflect (bit max(A) - x for each
x, its bytes reversed through a table), _stride (the class r mod g as
{(x - r)/g}, every g-th binary digit; _strides takes several classes
from one digit string) and _dilate ({g*x}, the digits spread g apart by
_spread, which also lays out the product's decimal operands). The mirror,
residue and gap readers use them and whole-mask shifts, no element
tuple.

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
from itertools import accumulate, compress, count, islice, pairwise
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


# A kind the cover gives up on goes to the decimal product (_kronecker)
# when the runs left number >= weight * w * (bit length of M), w the digits
# of |A|: there the product beats one pass per run. Fitted against one
# pass per run of the whole set on a 2-core x86-64 host, Python 3.11, on
# random sets of density 1/128 to 1/2 at M from 2**13 to 2**20: parity
# sits near weights 45-75 (sums) and 75-120 (differences) at M <= 2**14,
# and near 75-125 and 185-325 from 2**15 up. Right shifts are cheaper than
# left ones, hence the larger weight for differences. Against the two-ended
# run kernel, which checks on, the product lost at every hand-off measured
# (density 1/20 to 1/128, M from 2**14 to 2**20; BENCH_kernel.json).
_SUM_WEIGHT = 75
_DIFF_WEIGHT = 250
# below this many elements OR-ing single bits beats the digit buffer
_PACK_MIN_CARD = 512

# below one element per this many bit positions, elements_of skips zero
# bytes instead of reading every digit (parity near 16 at M = 2**24)
_SPARSE_RATIO = 32

# product blocks turned into bits per step, which bounds the digit string
_CHUNK_BLOCKS = 1 << 20
# a product digit as a binary one: 0 stays 0, any count of ways becomes 1
_NONZERO = bytes.maketrans(b"23456789", b"11111111")

# the bits read at each end for a period of the interval path
_END_WINDOW = 256
# up to this many spans a mask is built by shifts, not from digits
_FEW_SPANS = 32

_UNPACK = bytes.maketrans(b"01", b"\x00\x01")
_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))
_ANY_BIT = bytes([0] + [1] * 255)
# _BYTE_BITS[v] holds the set bits of the byte v, ascending
_BYTE_BITS = [()]
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


def bits_of(elements: Iterable[int]) -> int:
    """Pack an iterable of ints in [0, UNIVERSE_CAP) into a dense bitmask."""
    if type(elements) is range:  # one progression: its ends, step and length
        return _range_bits(elements)
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


def _range_bits(elements: range) -> int:
    # bits_of a range, with its errors, by one _smear
    if not elements:
        return 0
    low, top = sorted((elements[0], elements[-1]))
    step = abs(elements.step)
    if low < 0:
        raise InvalidParameterError(f"set element {_num(low)} is negative")
    if top >= UNIVERSE_CAP:
        least = low if low >= UNIVERSE_CAP else low - (low - UNIVERSE_CAP) // step * step
        raise UniverseOverflowError(
            f"element {_num(least)} is at or beyond the universe cap {UNIVERSE_CAP}")
    return _smear(1 << low, step, len(elements))


def _smear(bits: int, step: int, count: int) -> int:
    # OR of bits << i*step over i < count, count >= 1, in about log2(count)
    # shift-ORs that each copy the block built so far
    have = 1  # bits now holds the copies 0, step, ..., (have-1)*step
    while 2 * have <= count:
        bits |= bits << have * step
        have *= 2
    return bits | bits << (count - have) * step


def _reflect(bits: int) -> int:
    # bit top - x for each x in A, top = max(A): the bytes read the other
    # way round, each with its bits reversed
    n = bits.bit_length()
    k = (n + 7) // 8
    return int.from_bytes(bits.to_bytes(k, "little").translate(_REVERSED), "big") >> 8 * k - n


def _stride(bits: int, g: int, r: int = 0) -> int:
    # {(x - r)/g : x in A, x = r mod g}, r < g: every g-th binary digit
    return _strides(bits, g, (r,))[0]


def _strides(bits: int, g: int, classes: Iterable[int]) -> list[int]:
    # _stride of each class r in classes, from one digit string
    digits = bin(bits)[2:]
    return [int(digits[(len(digits) - 1 - r) % g::g] or "0", 2) for r in classes]


def _spread(bits: int, w: int) -> bytearray:
    # the binary digits, most significant first, each led by w - 1 zeros: the
    # digits of bits(w*A) read in base 2, of A(10**w) in base 10
    digits = bin(bits)[2:].encode()
    out = bytearray(b"0") * (len(digits) * w)
    out[w - 1::w] = digits
    return out


def _dilate(bits: int, g: int) -> int:
    # {g*x : x in A}
    return int(_spread(bits, g), 2)


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


def _product_pays(bits: int, runs: int, weight: int) -> bool:
    # shift-OR makes one pass over the mask per run, the product ~w*log(M) per bit
    return runs >= weight * len(str(bits.bit_count())) * bits.bit_length().bit_length()


def _verdict(bits: int, left: int, before, taken: int, rest: int, weight: int):
    # a kind's fate at a checkpoint from its open count: "test" them, give it
    # to the "product", or the count to compare at the next checkpoint
    if left <= taken and left < rest:
        return "test"
    if before is not None and 2 * left > before and _product_pays(bits, rest, weight):
        return "product"
    return left


def _kronecker(bits: int, reflect: bool) -> int:
    # bits(A+A), or bits(D) with reflect, by the module docstring's decimal
    # product in w-digit blocks
    import decimal
    n = bits.bit_length()
    w = len(str(bits.bit_count()))  # 10**w > |A| >= every coefficient
    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow]
    ctx = decimal.Context(prec=2 * n * w, Emax=decimal.MAX_EMAX, traps=traps)
    # shifting by 0 in this context keeps the lowest _CHUNK_BLOCKS blocks
    cut = decimal.Context(prec=_CHUNK_BLOCKS * w, Emax=decimal.MAX_EMAX, traps=traps)
    p = decimal.Decimal(_spread(bits, w).decode())
    q = decimal.Decimal(_spread(_reflect(bits), w).decode()) if reflect else p
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


def _period(window: int, n: int) -> int:
    # the least g <= n/4 that repeats the n-bit window past its first quarter
    # (bit x equals bit x + g there), tried at the first three offsets of
    # set bits from the least one; 0 if none
    window >>= n // 4
    if not window:
        return 0
    low = (window & -window).bit_length() - 1
    window >>= low
    n -= n // 4 + low
    later = window >> 1  # bit g - 1 set: an offset g to try
    for _ in range(3):
        g = (later & -later).bit_length()
        if not g or 4 * g > n:
            return 0
        if not (window ^ window >> g) & (1 << n - g) - 1:
            return g
        later &= later - 1
    return 0


def _class_runs(bits: int, edges: int, count: int) -> list | None:
    # the runs [u, v] of each class mod g, contracted ({(x - r)/g}), g their
    # count, when the module docstring's interval path pays; else None.
    # count is edges.bit_count(), twice the runs
    words = bits.bit_length() >> 6
    if count * count < 4 * words:
        return [_runs(edges, count)]
    if count < 16:
        return None
    n = min(_END_WINDOW, bits.bit_length())
    part = bits & (1 << n) - 1 or bits  # holds min(A), and is short unless min(A) >= n
    low = (part & -part).bit_length() - 1
    g = _period((bits & (1 << low + n) - 1) >> low, n)
    g = g and math.lcm(g, _period(_reflect(bits >> bits.bit_length() - n), n))
    if not 1 < g <= n // 4:
        return None
    classes = [c ^ c << 1 for c in _strides(bits, g, range(g))]
    counts = [c.bit_count() for c in classes]
    if sum(counts) ** 2 >= 4 * words:
        return None
    return [_runs(c, k) for c, k in zip(classes, counts)]


def _runs(edges: int, count: int) -> list[tuple[int, int]]:
    # the runs [u, v] of a mask from its count edges bits ^ bits << 1, read
    # from 64 bits at each end when those hold them all
    n = edges.bit_length()
    low, high = edges & (1 << 64) - 1, edges >> max(n - 64, 0)
    if n > 128 and low.bit_count() + high.bit_count() == count:
        ends = (*elements_of(low), *(n - 64 + x for x in elements_of(high)))
    else:
        ends = elements_of(edges)
    return [(u, stop - 1) for u, stop in zip(ends[::2], ends[1::2])]


def _merge(spans: list) -> list[tuple[int, int]]:
    # the union of the spans [lo, hi] as sorted disjoint spans
    if not spans:
        return []
    spans.sort()
    out = []
    lo, hi = spans[0]
    for a, b in spans:
        if a <= hi + 1:
            if b > hi:
                hi = b
        else:
            out.append((lo, hi))
            lo, hi = a, b
    out.append((lo, hi))
    return out


def _span_sums(classes: list) -> list:
    # each class of A+A as merged spans: class r plus class s lands in class
    # (r + s) mod g, shifted by the carry (r + s) // g
    g = len(classes)
    out = [[] for _ in classes]
    for r, ours in enumerate(classes):
        for s in range(r, g):
            carry, t = divmod(r + s, g)
            theirs = classes[s]
            out[t] += [(u + x + carry, v + y + carry) for i, (u, v) in enumerate(ours)
                       for x, y in (theirs[i:] if r == s else theirs)]
    return [_merge(spans) for spans in out]


def _span_mags(classes: list) -> list:
    # each class of D as merged spans: class r less class s lands in class
    # (r - s) mod g, shifted by the carry (r - s) // g, and only quotients
    # from 0 up are magnitudes
    g = len(classes)
    out = [[] for _ in classes]
    for r, ours in enumerate(classes):
        for s, theirs in enumerate(classes):
            carry, t = divmod(r - s, g)
            if r == s:  # a run less itself, or less a run below it
                out[t] += [(0, v - u) for u, v in ours]
                out[t] += [(u - y, v - x) for i, (u, v) in enumerate(ours) for x, y in ours[:i]]
            else:
                out[t] += [(max(0, u - y + carry), v - x + carry) for u, v in ours
                           for x, y in theirs if v - x + carry >= 0]
    return [_merge(spans) for spans in out]


def _span_mask(spans: list) -> int:
    # the union over classes t of {g*q + t : q in a span of class t}, by one
    # shift per span when they are few, else from one digit buffer
    g = len(spans)
    if g == 1 and len(spans[0]) <= _FEW_SPANS:
        return sum((2 << hi) - (1 << lo) for lo, hi in spans[0])
    n = 1 + max(g * ours[-1][1] + t for t, ours in enumerate(spans) if ours)
    digits = bytearray(b"0") * n
    ones = b"1" * max(hi - lo + 1 for ours in spans for lo, hi in ours)
    for t, ours in enumerate(spans):
        for lo, hi in ours:
            digits[n - 1 - g * hi - t:n - g * lo - t:g] = ones[:hi - lo + 1]
    return int(digits, 2)


def _span_count(spans: list) -> int:
    return sum(hi - lo + 1 for ours in spans for lo, hi in ours)


def _sums_and_mags(bits: int, sums: bool, mags: bool, count: bool = False) -> tuple[int, int]:
    # bits(A+A) and bits(D), 0 where not asked for, or with count their
    # sizes: from the spans of the runs where the interval path pays, else
    # by the run kernel
    edges = bits ^ bits << 1
    ends = edges.bit_count()
    if bits.bit_length() > 127 and (classes := _class_runs(bits, edges, ends)):  # two words
        out = _span_count if count else _span_mask
        return (out(_span_sums(classes)) if sums else 0,
                out(_span_mags(classes)) if mags else 0)
    s, d = _run_kernel(bits, edges, ends, sums, mags)
    return (s.bit_count(), d.bit_count()) if count else (s, d)


def _run_kernel(bits: int, edges: int, ends: int, sums: bool, mags: bool) -> tuple[int, int]:
    # bits(A+A) and bits(D), 0 where not asked for, by the module docstring's
    # run kernel: one shift per run, the runs read from both ends a window at
    # a time, and the cover's checkpoint between windows; edges is
    # bits ^ bits << 1, less those taken, which leaves them in [a, b), and
    # ends its bit count
    a, b = 0, edges.bit_length()
    width = b  # the rest at once, unless past 8 runs a checkpoint can come:
    if ends > 16:  # then windows, up from min(A)
        a, width = (bits & -bits).bit_length() - 1, 64
    s = d = 0
    smears = [bits]  # smears[k] ORs bits << j over j < 2**k
    grown, at = bits, 1  # the same over j < at, the last run's length
    taken, check = 0, 8  # runs taken, and how many call the next checkpoint
    seen_s = seen_d = None  # each kind's verdict at the last checkpoint
    while True:
        if b - a <= 2 * width:  # the windows would meet: the rest at once
            windows, a = ((a, elements_of(edges >> a)),), b
        else:  # a window from each end, each cut back to whole runs
            low = elements_of(edges >> a & (1 << width) - 1)
            high = elements_of(edges >> b - width)
            cut_low, cut_high = len(low) % 2, len(high) % 2  # a start, a stop
            windows = (a, low[:len(low) - cut_low]), (b - width, high[cut_high:])
            taken += len(low) // 2 + len(high) // 2
            a += low[-1] if cut_low else width
            b -= width - high[0] - 1 if cut_high else width
            edges &= (1 << b) - 1
        width *= 2
        for base, got in windows:  # the edges less base
            part = 0  # the sums less base
            for u, stop in zip(got := iter(got), got):
                if stop - u != at:
                    at = stop - u
                    k = at.bit_length() - 1
                    while len(smears) <= k:
                        smears.append(smears[-1] | smears[-1] << (1 << len(smears) - 1))
                    grown = smears[k] if at == 1 << k else smears[k] | smears[k] << at - (1 << k)
                if sums:
                    part |= grown << u
                if mags:
                    d |= grown >> base + stop - 1
            s |= part << base
        if a >= b:
            return s, d
        if taken < check:
            continue
        # the cover: every element below a and from b up is taken
        check, top = 2 * taken, bits.bit_length() - 1
        rest = (edges >> a).bit_count() // 2  # runs not taken
        if sums:
            opened = ~(s >> 2 * a) & (1 << 2 * (b - a) - 1) - 1
            seen_s = _verdict(bits, opened.bit_count(), seen_s, taken, rest, _SUM_WEIGHT)
            if seen_s == "test":
                rev = _reflect(bits)
                for t in elements_of(opened):
                    shift = 2 * a + t - top  # rev shifted by it has bit 2a+t-y for y in A
                    if bits & (rev << shift if shift >= 0 else rev >> -shift):
                        s |= 1 << 2 * a + t
            elif seen_s == "product":
                s = _kronecker(bits, reflect=False)
            sums = seen_s not in ("test", "product")
        if mags:
            opened = ~d & (2 << top - a) - 1
            seen_d = _verdict(bits, opened.bit_count(), seen_d, taken, rest, _DIFF_WEIGHT)
            if seen_d == "test":
                for t in elements_of(opened):
                    if bits & bits >> t:
                        d |= 1 << t
            elif seen_d == "product":
                d = _kronecker(bits, reflect=True)
            mags = seen_d not in ("test", "product")
        if not (sums or mags):
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
        The elements of A, accepted for callers that hold them. They do
        not change the work: every set is read from its mask by its runs.

    Returns
    -------
    (int, int)
        |A+A| and the signed-difference cardinality 2*popcount(D) - 1.
        The empty mask raises EmptySetError, a negative one
        InvalidParameterError.
    """
    if not _require_mask(bits):
        raise EmptySetError("empty set has no sum or difference set")
    s, d = _sums_and_mags(bits, sums=True, mags=True, count=True)
    return s, 2 * d - 1


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
        return f"IntSet({format_set_literal(self)})"


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
    if not a.bits:
        raise EmptySetError("sumset of the empty set")
    if 2 * a.max >= UNIVERSE_CAP:  # what from_bits would reject, before the kernel runs
        raise UniverseOverflowError("bitmask extends beyond the universe cap")
    return IntSet.from_bits(sumset_bits(a.bits))


def diffset(a: IntSet) -> tuple[IntSet, int]:
    """Difference magnitudes and the signed cardinality |A-A|.

    Returns
    -------
    (IntSet, int)
        The set {|a - b| : a, b in A} of nonnegative magnitudes, and
        2*|magnitudes| - 1, the cardinality of the full signed set A-A.
    """
    if not a.bits:
        raise EmptySetError("difference set of the empty set")
    mags = diff_bits(a.bits)
    return IntSet.from_bits(mags), 2 * mags.bit_count() - 1


def classify(a: IntSet) -> Classification:
    """Classify A as sum-dominant, balanced, or difference-dominant."""
    if not a.bits:
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
    low = a.bits >> a.min
    return a.min + a.max if _reflect(low) == low else None


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
    # g: the first gap (the gcd divides it), then its gcd with the least non-multiple
    low = a.bits >> a.min
    rest = low & low - 1
    g = (rest & -rest).bit_length() - 1
    while leftover := low & ~_dilate(strided := _stride(low, g), g):
        g, before = math.gcd(g, (leftover & -leftover).bit_length() - 1), g
        if g == before:  # a multiple of g left over: the mask helpers disagree
            raise RuntimeError(f"normalize_affine: a round left the gap gcd at {g}")
    return IntSet.from_bits(strided)


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
        return IntSet(accumulate(self.gaps, initial=self.origin))


def gaps_of(a: IntSet) -> tuple[int, ...]:
    """Consecutive gaps of a sorted nonempty set (empty tuple for singletons)."""
    if len(a) == 0:
        raise EmptySetError("empty set has no gaps")
    return tuple(y - x for x, y in pairwise(a.elements))


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
