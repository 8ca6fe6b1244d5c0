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

sumset_bits, diff_bits and sum_diff_cards take one shift per run. A run
[u, u+L-1] contributes smear << u to the sums and smear >> (u+L-1) to the
magnitudes, where smear ORs bits(A) << j over j < L: x + y for x in the
run and every y in A, and y - x for x in the run and every y >= x in A.
The smear of each power of two is built once by doubling, and that of L
in [2**k, 2**(k+1)) is the one of 2**k ORed with itself shifted by
L - 2**k, so R runs cost R passes, plus one per change of run length at
most (_take_runs). A mask of up to 127 bits takes all its runs at once.
A wider one goes to mstd._kernel, loaded on the first such mask and then
bound in _wide: it takes intervals for a set of few runs, or of few runs
per residue class, and otherwise reads the runs a window at a time through
_take_runs, with a cover between windows that tests the positions still
in doubt; its docstring gives the paths and their costs.

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
from one digit string) and _dilate ({g*x}, the digits spread g apart).
The mirror, residue and gap readers use them and whole-mask shifts, no
element tuple.

Elements must lie in [0, UNIVERSE_CAP); beyond that the dense masks stop
being a sensible encoding and construction raises UniverseOverflowError.

Gap notation describes a set by its first element and the run of
consecutive gaps: {2, 3, 9, 10, 15} is written "(2 | 1, 6, 1, 5)" and a
singleton {7} is "(7 |)". Parsing and formatting are exact inverses on
canonical text. Both notations are read as one list of tokens: after any
whitespace, a token is an optionally signed base-10 integer or any other
single character, and the end of the text is the empty token. Each
parser is its grammar over that list, and a ParseError's offset is where
the offending token starts, also for a number with more digits than
int() converts.
"""

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


# below this many elements OR-ing single bits beats the digit buffer
_PACK_MIN_CARD = 512

# below one element per this many bit positions, elements_of skips zero
# bytes instead of reading every digit (parity near 16 at M = 2**24)
_SPARSE_RATIO = 32

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


def _dilate(bits: int, g: int) -> int:
    # {g*x : x in A}: the binary digits, each led by g - 1 zeros
    digits = bin(bits)[2:].encode()
    out = bytearray(b"0") * (len(digits) * g)
    out[g - 1::g] = digits
    return int(out, 2)


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


def _require_set(value) -> "IntSet":
    # a set argument, which must be an IntSet
    if not isinstance(value, IntSet):
        raise InvalidParameterError(f"set argument must be an IntSet, not {type(value).__name__}")
    return value


def _require_text(value) -> str:
    # a text argument of a parser, which must be a str
    if not isinstance(value, str):
        raise InvalidParameterError(f"text must be a str, not {type(value).__name__}")
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


def _take_runs(smears: list, ends, base: int, sums: bool, mags: bool) -> tuple[int, int]:
    # the sums less base and the magnitudes of the runs [u, stop) of A, one
    # shift per run, as the module docstring says: ends alternates the u and
    # stop of each, less base, and smears[k] ORs bits << j over j < 2**k,
    # grown here as longer runs come; 0 for a kind not asked for
    s = d = at = 0
    for u, stop in zip(ends := iter(ends), ends):
        if stop - u != at:
            at = stop - u
            k = at.bit_length() - 1
            while len(smears) <= k:
                smears.append(smears[-1] | smears[-1] << (1 << len(smears) - 1))
            grown = smears[k] if at == 1 << k else smears[k] | smears[k] << at - (1 << k)
        if sums:
            s |= grown << u
        if mags:
            d |= grown >> base + stop - 1
    return s, d


_wide = None  # mstd._kernel.sums_and_mags, bound on the first mask wider than 127 bits


def _sums_and_mags(bits: int, sums: bool, mags: bool, count: bool = False) -> tuple[int, int]:
    # bits(A+A) and bits(D), 0 where not asked for, or with count their
    # sizes: a mask of two words or more by mstd._kernel, else all its runs
    # at once
    global _wide
    if bits.bit_length() > 127:
        if _wide is None:
            from ._kernel import sums_and_mags as _wide
        return _wide(bits, sums, mags, count)
    s, d = _take_runs([bits], elements_of(bits ^ bits << 1), 0, sums, mags)
    return (s.bit_count(), d.bit_count()) if count else (s, d)


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
    if not _require_set(a).bits:
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
    if not _require_set(a).bits:
        raise EmptySetError("difference set of the empty set")
    mags = diff_bits(a.bits)
    return IntSet.from_bits(mags), 2 * mags.bit_count() - 1


def classify(a: IntSet) -> Classification:
    """Classify A as sum-dominant, balanced, or difference-dominant."""
    if not _require_set(a).bits:
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
    if not _require_set(a).bits:
        raise EmptySetError("empty set has no symmetry center")
    low = a.bits >> a.min
    return a.min + a.max if _reflect(low) == low else None


def normalize_affine(a: IntSet) -> IntSet:
    """Affine-canonical form: translate min to 0, divide out the gap gcd.

    Classification is invariant under x -> (x - min)/g, so normalized
    sets are the right keys for dedup in exhaustive scans. Needs at
    least two elements (a singleton has no gaps to scale).
    """
    if not _require_set(a).bits:
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
    if not _require_set(a).bits:
        raise EmptySetError("empty set has no gaps")
    return tuple(y - x for x, y in pairwise(a.elements))


def format_gap_notation(a: IntSet) -> str:
    """Canonical gap-notation text for a nonempty set."""
    if not _require_set(a).bits:
        raise EmptySetError("cannot format the empty set")
    gaps = gaps_of(a)
    if not gaps:
        return f"({a.min} |)"
    return f"({a.min} | {', '.join(map(str, gaps))})"


def format_set_literal(a: IntSet) -> str:
    """Canonical brace-literal text, e.g. "{0, 1, 3}"."""
    return f"{{{', '.join(map(str, _require_set(a).elements))}}}"


# after any whitespace, an optionally signed base-10 integer or any other
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
    except ValueError:  # one character that is no number, or more digits than int() converts
        what = (f"integer of {len(tok.lstrip('-'))} digits is too long" if len(tok) > 1
                else f"expected integer, found {tok!r}")
        raise ParseError(what, _offset(text, i)) from None


def parse_set_literal(text: str) -> IntSet:
    """Parse "{1, 2, 3}", "1,2,3", or "1 2 3" into an IntSet.

    Elements must be nonnegative base-10 integers; separators are commas
    and/or whitespace; braces are optional but must be balanced. "{}" is
    the empty set. Raises ParseError with the byte offset of the first
    offending token.
    """
    tokens = _TOKEN.findall(_require_text(text))
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
    tokens = _TOKEN.findall(_require_text(text))
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
