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

from types import ModuleType as _ModuleType

from .core import (
    UNIVERSE_CAP,
    Classification,
    GapNotation,
    IntSet,
    Kind,
    bits_of,
    classify,
    diff_bits,
    diffset,
    elements_of,
    format_gap_notation,
    format_set_literal,
    gaps_of,
    normalize_affine,
    parse_gap_notation,
    parse_set_literal,
    sum_diff_cards,
    sumset,
    sumset_bits,
    symmetry_center,
)
from .errors import (
    BudgetExceededError,
    ConstraintViolationError,
    DegenerateSetError,
    EmptySetError,
    Error,
    InvalidParameterError,
    ParseError,
    UniverseOverflowError,
)
from .lemmas import (
    NOT_SUM_DOMINANT,
    ArithProg,
    LemmaVerdict,
    infer_block_gap,
    is_arithmetic_progression,
    ms_condition1,
    ms_condition2,
    new_sums_on_extend,
)
from .constructions import (
    CENTER_SET,
    Partition3Result,
    Partition3Spec,
    SpecViolation,
    ap,
    default_blocks,
    k_set,
    middle_window,
    nathanson_set,
    partition3,
    union_two_aps,
    validate_partition_spec,
)
from .search import (
    LargestSubsetResult,
    Partition3Feasibility,
    SearchReport,
    ap_pair_scan,
    largest_subset,
    largest_subset_scan,
    min_size_scan,
    partition3_feasible,
    two_ap_general_scan,
)

__version__ = "0.1.0"

# every name the imports above bind, less the submodules they load
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
