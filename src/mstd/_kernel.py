"""The large-set kernels: A+A and A-A of a bitmask by ends or product.

mstd.core imports this module on the first call of sumset_bits,
diff_bits or sum_diff_cards on a set of at least _COVER_RUNS maximal
runs of consecutive elements. A set of fewer runs, which includes every
search engine's set, takes core's shift-OR and never loads it, so a
process that only works with such sets does not compile the code below.

Shift-OR (see mstd.core) costs R passes over M bits, which is quadratic
for dense sets with many runs (a random set of density p has about
p(1-p)M of them). Such sets go through a second kernel, Kronecker
substitution: write A as the polynomial A(x) = sum of x**a, evaluate it
at x = 10**w, and the exact decimal product A(x)*A(x) (or
A(x)*x**M*A(1/x) for differences) carries the coefficient of x**s, the
number of ways to write s, in its w-digit block s. With 10**w > |A| no
block overflows into the next, and the nonzero blocks are the support. libmpdec multiplies numbers this
long with a number-theoretic transform, so one product costs about
M*w*log(M) instead of R*M. The decimal context traps Inexact and
Rounded, so a product can never round silently, and the decimal module
is imported only when the first product runs.

Every set that reaches this module first tries a third kernel, the
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
540 MB). Giving up costs 16 passes and two counts, which core's
_COVER_RUNS floor keeps to about a quarter of the passes shift-OR then
makes, and far less than a product.

Which of shift-OR and the product runs is decided per set from its run
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
"""

from __future__ import annotations

from typing import Iterator

from .core import _reflect, _runs, _shift_or, _spread, elements_of

# Fitted on a 2-core x86-64 host, Python 3.11, on random sets of density
# 1/128 to 1/2 at M from 2**13 to 2**20: the product beats one shift-OR per
# run once the runs number >= weight * w * (bit length of M), w the digits
# of |A|. Parity sits near weights 45-75 (sums) and 75-120 (differences)
# at M <= 2**14, and near 75-125 and 185-325 from 2**15 up, where these
# weights pick the faster kernel at every point measured. Right shifts
# are cheaper than left ones, hence the larger weight for differences.
_SUM_WEIGHT = 75
_DIFF_WEIGHT = 250
# product blocks turned into bits per step, which bounds the digit string
_CHUNK_BLOCKS = 1 << 20

_NONZERO = bytes.maketrans(b"23456789", b"11111111")


def _product_pays(bits: int, weight: int) -> bool:
    # shift-OR makes one pass over the mask per run, the product ~w*log(M) per bit
    return _runs(bits) >= weight * len(str(bits.bit_count())) * bits.bit_length().bit_length()


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
    """bits(A+A) and bits(D) by the module docstring's cover, or None where it gives up."""
    top = bits.bit_length() - 1
    rev = _reflect(bits)
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


def _many_runs(bits: int, sums: bool, mags: bool) -> tuple[int, int]:
    # bits(A+A) and bits(D) of a set of at least _COVER_RUNS runs, 0 where
    # not asked for: from the cover if it settles them, else each from the
    # kernel that pays for this set, the runs unpacked once for both
    if both := _cover(bits, sums, mags):
        return both
    run_sums = sums and not _product_pays(bits, _SUM_WEIGHT)
    run_mags = mags and not _product_pays(bits, _DIFF_WEIGHT)
    s, d = _shift_or(bits, run_sums, run_mags) if run_sums or run_mags else (0, 0)
    if sums and not run_sums:
        s = _kronecker(bits, reflect=False)
    if mags and not run_mags:
        d = _kronecker(bits, reflect=True)
    return s, d
