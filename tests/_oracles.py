"""Slow reference implementations used to cross-check the fast kernel.

The naive functions work on plain Python sets with explicit double
loops. The ref_ functions are the original shift-OR kernel, one shifted
copy of the mask per element. Neither shares code with the package's
bitmask arithmetic.
"""


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
# pack/unpack and the decimal product path, kept to cross-check them


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
