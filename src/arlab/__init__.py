"""Desk-scale laboratory for autoregressive PAC learning.

Finite next-bit generator classes, brute-force combinatorial dimensions,
compression-based chain-of-thought learners, and an exact-evaluation PAC
simulation harness.
"""

from .core import (
    FiniteClass,
    Generator,
    SequenceGenerator,
    TableGenerator,
    cot_trace,
    e2e_output,
    realized_trace_tree,
)
from .classes import (
    IntervalSet,
    LinearParams,
    RateTable,
    diagonal_rate,
    enumerate_linear_class,
    interval_density,
    make_atdim_example_class,
    make_full_class,
    make_linear_generator,
    make_parity_class,
    make_product_class,
    make_shifted_subset_class,
    make_taxonomy_class,
    normalize_rate,
    rate_to_set,
)
from .errors import (
    BoostingFailed,
    DepthCapExceeded,
    EnumerationTooLarge,
    HorizonExceeded,
    HorizonTooSmall,
    LabError,
    NotRealizable,
    NotSeparable,
    OriginMissing,
    RateInvalid,
    RateNotNormalized,
    SearchCapExceeded,
    SpecParseError,
    Unlearnable,
)

__version__ = "0.1.0"
