"""The decimal product: A+A and A-A of a bitmask by Kronecker substitution.

mstd.core imports this module only when its run kernel gives a sumset or
a difference set to the product (see mstd.core), so a process that never
runs one does not compile the code below or import decimal.

Write A as the polynomial A(x) = sum of x**a, evaluate it at x = 10**w,
and the exact decimal product A(x)*A(x) (or A(x)*x**M*A(1/x) for
differences) carries the coefficient of x**s, the number of ways to write
s, in its w-digit block s. With 10**w > |A| no block overflows into the
next, and the nonzero blocks are the support. libmpdec multiplies numbers
this long with a number-theoretic transform, so one product costs about
M*w*log(M) instead of one pass over M bits per run. The decimal context
traps Inexact and Rounded, so a product can never round silently.

The product's memory is the operands and the transform buffers, about 3
bytes per decimal digit for a sumset and 5 for a difference set (the
result's digits are read a million blocks at a time). A dense set at
M = 2**22 (w = 7) peaks ~22 and ~35 bytes per universe position above
its baseline, so near 2**24 (w = 8) a sumset takes about 400 MB and a
difference set about 650 MB.
"""

from __future__ import annotations

import decimal

from .core import _reflect, _spread

# product blocks turned into bits per step, which bounds the digit string
_CHUNK_BLOCKS = 1 << 20

_NONZERO = bytes.maketrans(b"23456789", b"11111111")


def _kronecker(bits: int, reflect: bool) -> int:
    """Support of A(x)**2, or of A(x)*x**M*A(1/x) at x**M and above.

    The first is bits(A+A) and the second bits(D), computed by one exact
    decimal product in w-digit blocks (see the module docstring).
    """
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

