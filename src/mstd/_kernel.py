"""The large-set kernel: sumset_bits, diff_bits and sum_diff_cards of a mask
wider than 127 bits.

mstd.core takes a mask of up to 127 bits by one shift per run, all its runs
at once (core._take_runs), and loads this module on the first wider mask.
Here such a mask takes one of two paths: intervals, for a set of few runs
of consecutive elements or of few runs per residue class; and the run
kernel, the same shift per run a window at a time, which hands a kind whose
cover stalls to the residue classes when those are few runs.

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
core._strides takes every class from one digit string of the mask, and
the spans of all classes are laid back into one digit buffer.

Choosing a path. Let R be the runs of A and W = M/64 the words of its
mask. Intervals are taken when R**2 < W. Otherwise, for R >= 8 and W >=
2, the _END_WINDOW bits nearest each end are read for a period: the least
g <= _END_WINDOW/4 that repeats the window past its first quarter, tried
at the first three offsets of set bits from the least one there, so a
random set fails three tests at each end. When both ends have one, g is
their lcm, up to _END_WINDOW, and the classes mod g are taken when (their
runs summed)**2 < W (_classes); else the run kernel runs. Every g is
exact, so the choice moves cost only. On a 2-core x86-64 host, Python
3.11, random sets of R runs at M from 2**12 to 2**24 cross over near R**2
= W to 2W, the interval path several times faster below and the run
kernel above; sum_diff_cards of k_set(100050) takes ~30 us (the run
kernel ~180 us), and at M = 2**24 that of the evens or of nathanson_set
~0.1-0.15 s and 55 MB of peak memory.

The run kernel takes the runs through core._take_runs, one shift per run.
A is cut into blocks at every gap of at least M/_BLOCK_GAP bits (_blocks,
from the runs of zero bytes of the mask), and the runs of each block are
read a doubling window at a time up from its least element and down from
its greatest, each window cut back to whole runs, until the windows meet.
The smears of the powers of two are kept across windows, so R runs cost R
passes, plus one per window and per change of run length at most.

Between windows the kernel is a cover, which rests on the fact that only
the fringes of A+A and A-A are in doubt for a dense set (Martin and
O'Bryant, "Many sets have more sums than differences", 2007). Block i,
of extent [lo_i, hi_i], has a front (a_i, b_i): its elements below a_i
and from b_i up have been taken, in whole runs, so those not taken, the
open ones, lie in [a_i, b_i - 1].

    Exact zones. A sum x + y is in the mask once x or y is taken, and a
    magnitude y - x, x <= y, once x is. So a pair still missing has both
    terms open for a sum, and x open for a magnitude: with x in front i
    and y in front j >= i, or in block j >= i, the missing sums lie in
    the union over i <= j of [a_i + a_j, b_i + b_j - 2], and the missing
    magnitudes in the union over i <= j of [max(0, lo_j - b_i + 1),
    hi_j - a_i]. Outside these zones the masks are exact, and inside them
    every set position is a true sum or magnitude. One block gives the
    sums in [2a, 2(b-1)] and the magnitudes in [0, max(A) - a].

    Per-position test. A position s left unset in the sum zone is a sum
    iff bits(A) & (rev shifted by s - top) is nonzero, rev = A reflected
    about top = max(A) (its bit x says s - x is in A), and a magnitude t
    iff bits(A) & (bits(A) >> t) is.

Between windows, once at least 8 runs are taken, and then twice as many
as at the last check, each kind asked for counts its unset positions in
its zone. If they number no more than the runs taken and fewer than the
runs left, it tests each one and is done: the tests cost no more than
the passes did, nor than the passes they save. If a doubling of the runs
has not halved them, the kind has stalled on a hole that no end fills: a
period is read from the _END_WINDOW positions of its zone from the least
open one, as at the ends above, and when the classes of A mod that g are
few runs, both kinds still open are finished from them on the interval
path; each g is read once, and so is the window at each least open
position. Otherwise the kind is checked again at the next doubling. No
pass is made twice. A sum below max(A) comes only from the bottom and
one above it only from the top, so a random set of density p leaves a
position unset after c runs with chance about (1-p)**(c/2), and
half-full sets finish within a few dozen runs at every M: sum_diff_cards
takes ~5 ms at M = 10**6, and classify ~0.1 s and ~40 MB above its
baseline at M = 2**24 - 1. The evens with their top thinned stall on
their odd holes and hand off to the classes mod 2
(~0.5 s at 2**24); two ends of density 1/20 around an empty middle are
two blocks, whose inner fronts fill the sums near the gap (~2 s at
2**24), and a random set of density 1/20 is checked again until its
tests settle it (~1-2 s at 2**24). The kernel's memory is a few masks
of 2M bits.
"""

import math

from .core import _BYTE_BITS, _reflect, _strides, _take_runs, elements_of

# the bits read at each end for a period of the interval path
_END_WINDOW = 256
# the run kernel splits A into blocks at gaps of at least M/_BLOCK_GAP bits
_BLOCK_GAP = 16
# up to this many spans a mask is built by shifts, not from digits
_FEW_SPANS = 32


def sums_and_mags(bits: int, sums: bool, mags: bool, count: bool) -> tuple[int, int]:
    # core._sums_and_mags for a mask wider than 127 bits: from the spans of
    # the runs where the interval path pays, else by the run kernel
    edges = bits ^ bits << 1
    ends = edges.bit_count()
    if classes := _class_runs(bits, edges, ends):
        out = _span_count if count else _span_mask
        return (out(_span_sums(classes)) if sums else 0,
                out(_span_mags(classes)) if mags else 0)
    s, d = _run_kernel(bits, edges, ends, sums, mags)
    return (s.bit_count(), d.bit_count()) if count else (s, d)


def _verdict(left: int, before, taken: int, rest: int):
    # a kind's fate at a checkpoint from its open count: "test" them, or
    # "stalled" when a doubling of the runs did not halve it (before is the
    # count at the last checkpoint), or None to check it again at the next
    if left <= taken and left < rest:
        return "test"
    if before is not None and 2 * left > before:
        return "stalled"
    return None


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
    if count * count < 4 * (bits.bit_length() >> 6):
        return [_runs(edges, count)]
    if count < 16:
        return None
    n = min(_END_WINDOW, bits.bit_length())
    part = bits & (1 << n) - 1 or bits  # holds min(A), and is short unless min(A) >= n
    low = (part & -part).bit_length() - 1
    g = _period((bits & (1 << low + n) - 1) >> low, n)
    g = g and math.lcm(g, _period(_reflect(bits >> bits.bit_length() - n), n))
    return _classes(bits, g) if 1 < g <= _END_WINDOW else None


def _classes(bits: int, g: int) -> list | None:
    # the runs of each class mod g, contracted, when their count summed
    # passes the interval path's test; else None
    classes = [c ^ c << 1 for c in _strides(bits, g, range(g))]
    counts = [c.bit_count() for c in classes]
    if sum(counts) ** 2 >= 4 * (bits.bit_length() >> 6):
        return None
    return [_runs(c, k) for c, k in zip(classes, counts)]


def _blocks(bits: int) -> list[tuple[int, int]]:
    # the extents [lo, hi] of the blocks of A, split at every run of at
    # least M/(8*_BLOCK_GAP) zero bytes, so at gaps of M/_BLOCK_GAP bits;
    # M must be at least 8*_BLOCK_GAP bits, for a run of one byte or more
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    gap = bytes(len(raw) // _BLOCK_GAP)
    out, lo = [], (bits & -bits).bit_length() - 1
    while (end := raw.find(gap, lo // 8)) >= 0:  # byte end - 1 holds the block's top
        out.append((lo, 8 * end - 8 + _BYTE_BITS[raw[end - 1]][-1]))
        rest = bits >> 8 * end
        lo = 8 * end + (rest & -rest).bit_length() - 1
    return out + [(lo, bits.bit_length() - 1)]


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


def _run_kernel(bits: int, edges: int, ends: int, sums: bool, mags: bool) -> tuple[int, int]:
    # bits(A+A) and bits(D), 0 where not asked for, by the module docstring's
    # run kernel: one shift per run, the runs read a window at a time from
    # both ends of every block, and the cover's checkpoint between windows;
    # edges is bits ^ bits << 1, and ends its bit count
    top = bits.bit_length() - 1
    s = d = 0
    smears = [bits]  # smears[k] ORs bits << j over j < 2**k
    taken, check = 0, 8  # runs taken, and how many call the next checkpoint
    seen_s = seen_d = None  # each kind's open count at the last checkpoint
    tried = {0, 1}  # the periods whose classes were read
    looked = set()  # the least open positions a period was read from
    if ends <= 16:  # fewer than 8 runs: all at once, before any checkpoint
        fronts, windows = (), ((0, elements_of(edges)),)
    else:  # windows, after a look for gaps as wide as the first ones
        width, windows = 64, ()
        blocks = (_blocks(bits) if top >= width * _BLOCK_GAP
                  else [((bits & -bits).bit_length() - 1, top)])
        # the fronts (a, b, j): the runs of block j not taken lie in [a, b),
        # and b - 1 is past the last element of such a run
        fronts = [(lo, hi + 2, j) for j, (lo, hi) in enumerate(blocks)]
    while True:
        for base, got in windows:  # the edges less base
            part, more = _take_runs(smears, got, base, sums, mags)
            s |= part << base
            d |= more
        if not fronts:
            return s, d
        if taken >= check:  # the cover: every open pair lies in these zones
            check, rest, stalled = 2 * taken, ends // 2 - taken, 0
            if sums:
                zone = 0  # x + y for x, y open
                for i, (a, b, _) in enumerate(fronts):
                    for c, e, _ in fronts[i:]:
                        zone |= (1 << b + e - 1) - (1 << a + c)
                opened = zone & ~s
                left = opened.bit_count()
                verdict, seen_s = _verdict(left, seen_s, taken, rest), left
                if verdict == "test":
                    rev = _reflect(bits)
                    for t in elements_of(opened):  # rev shifted by t - top: bit t - y for y in A
                        if bits & (rev << t - top if t >= top else rev >> top - t):
                            s |= 1 << t
                    sums = False
                elif verdict:
                    stalled = opened
            if mags:
                zone = 0  # y - x for x open, y >= x
                for a, b, j in fronts:
                    for lo, hi in blocks[j:]:
                        zone |= (2 << hi - a) - (1 << max(0, lo - b + 1))
                opened = zone & ~d
                left = opened.bit_count()
                verdict, seen_d = _verdict(left, seen_d, taken, rest), left
                if verdict == "test":
                    for t in elements_of(opened):
                        if bits & bits >> t:
                            d |= 1 << t
                    mags = False
                elif verdict:
                    stalled = stalled or opened
            # a period in the open zone may make A few runs per class; a zone
            # whose least open position is unmoved is read once
            if stalled and (low := (stalled & -stalled).bit_length() - 1) not in looked:
                looked.add(low)
                g = _period(stalled >> low & (1 << _END_WINDOW) - 1, _END_WINDOW)
                if g not in tried:
                    tried.add(g)
                    if classes := _classes(bits, g):
                        return (_span_mask(_span_sums(classes)) if sums else s,
                                _span_mask(_span_mags(classes)) if mags else d)
            if not (sums or mags):
                return s, d
        windows, still = [], []
        for a, b, j in fronts:
            if b - a <= 2 * width:  # the windows would meet: the rest at once
                got = elements_of(edges >> a & (1 << b - a) - 1)
                windows.append((a, got))
                taken += len(got) // 2
                continue
            # a window from each end, each cut back to whole runs
            low = elements_of(edges >> a & (1 << width) - 1)
            high = elements_of(edges >> b - width & (1 << width) - 1)
            cut_low, cut_high = len(low) % 2, len(high) % 2  # a start, a stop
            windows += (a, low[:len(low) - cut_low]), (b - width, high[cut_high:])
            taken += len(low) // 2 + len(high) // 2
            still.append((a + low[-1] if cut_low else a + width,
                          b - width + high[0] + 1 if cut_high else b - width, j))
        fronts, width = still, 2 * width
