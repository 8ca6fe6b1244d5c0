"""Sum-dominant set toolkit.

A finite set A of nonnegative integers is sum-dominant when its sumset
outgrows its difference set, |A+A| > |A-A|, despite addition being
commutative and subtraction not. This package computes the arithmetic
exactly on dense bitmasks, generates the known explicit families, checks
the structural conditions that rule sum-dominance out, and runs the
exhaustive searches that pin down how small, and how constrained, such
sets can be.

    >>> import mstd
    >>> mstd.classify(mstd.IntSet([0, 2, 3, 4, 7, 11, 12, 14])).kind
    <Kind.SUM_DOMINANT: 'sum-dominant'>

The command-line entry point `mstd` exposes the same operations; see
mstd.cli.
"""

from importlib import import_module as _import_module

# every public name by the submodule that defines it; `import mstd` loads no
# submodule, and a name's first use imports its own
_EXPORTS = {
    "core": (
        "UNIVERSE_CAP", "Classification", "GapNotation", "IntSet", "Kind",
        "bits_of", "classify", "diff_bits", "diffset", "elements_of",
        "format_gap_notation", "format_set_literal", "gaps_of",
        "normalize_affine", "parse_gap_notation", "parse_set_literal",
        "sum_diff_cards", "sumset", "sumset_bits", "symmetry_center",
    ),
    "errors": (
        "BudgetExceededError", "ConstraintViolationError", "DegenerateSetError",
        "EmptySetError", "Error", "InvalidParameterError", "ParseError",
        "UniverseOverflowError",
    ),
    "lemmas": (
        "NOT_SUM_DOMINANT", "ArithProg", "LemmaVerdict", "infer_block_gap",
        "is_arithmetic_progression", "ms_condition1", "ms_condition2",
        "new_sums_on_extend",
    ),
    "constructions": (
        "CENTER_SET", "Partition3Result", "Partition3Spec", "SpecViolation",
        "ap", "default_blocks", "k_set", "middle_window", "nathanson_set",
        "partition3", "union_two_aps", "validate_partition_spec",
    ),
    "search": (
        "LargestSubsetResult", "Partition3Feasibility", "SearchReport",
        "ap_pair_scan", "largest_subset", "largest_subset_scan",
        "min_size_scan", "partition3_feasible", "two_ap_general_scan",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the table's names in its order, then __version__
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # PEP 562: called only for names not yet in globals(), so each submodule
    # is imported once and each value kept here at its first use
    if name in _HOME:
        value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
        return value
    if name in _EXPORTS or name == "cli":
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
