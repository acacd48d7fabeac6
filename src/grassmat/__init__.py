"""Exact matrix identities over Grassmann coefficient algebras.

The library builds the exterior algebra on m anticommuting generators
over int, rat, or zmod:p coefficients, forms square matrices over it,
and verifies sharp degree bounds for three families of polynomial
identities: powers of the characteristic polynomial, bridged
alternating sums, and the standard alternating sum.  A campaign harness
runs seeded randomized and exhaustive checks and emits machine-readable
reports; the grassmat console script fronts it.
"""

from .errors import (
    BadCharacteristicError,
    BadPartitionError,
    ContextMismatchError,
    DegreeTooLargeError,
    DuplicateLambdasError,
    GrassmatError,
    GroupTooLargeError,
    HypothesisViolationError,
    IndexOutOfRangeError,
    LengthMismatchError,
    MixedRingsError,
    NonIncreasingIndicesError,
    NonScalarEntriesError,
)
from .gmatrix import GrMatrix, matrices_from_json, matrices_to_json
from .grassmann import MAX_RANK, GrassmannElem
from .harness import (
    Campaign,
    TARGETS,
    degrees_for,
    replay_reproducer,
    run_campaign,
)
from .identities import (
    YoungSpec,
    capelli_dp,
    capelli_naive,
    perm_sign,
    standard_dp,
    standard_naive,
    standard_product_eval,
    young_alternating_sum,
)
from .poly import Poly, charpoly
from .report import (
    COUNTEREXAMPLE_FOUND,
    FAIL,
    NO_COUNTEREXAMPLE_IN_BUDGET,
    PASS,
    Report,
)
from .ring import QQ, ZZ, PrimeField, Ring, parse_ring
from .sampling import atoms, random_grmatrix, splitmix64, trial_rng
from .witnesses import (
    capelli_inputs,
    ch_inputs,
    ch_nilpotent,
    staircase_units,
    standard_witness,
)

__all__ = [
    "BadCharacteristicError",
    "BadPartitionError",
    "COUNTEREXAMPLE_FOUND",
    "Campaign",
    "ContextMismatchError",
    "DegreeTooLargeError",
    "DuplicateLambdasError",
    "FAIL",
    "GrMatrix",
    "GrassmannElem",
    "GrassmatError",
    "GroupTooLargeError",
    "HypothesisViolationError",
    "IndexOutOfRangeError",
    "LengthMismatchError",
    "MAX_RANK",
    "MixedRingsError",
    "NO_COUNTEREXAMPLE_IN_BUDGET",
    "NonIncreasingIndicesError",
    "NonScalarEntriesError",
    "PASS",
    "Poly",
    "PrimeField",
    "QQ",
    "Report",
    "Ring",
    "TARGETS",
    "YoungSpec",
    "ZZ",
    "atoms",
    "capelli_dp",
    "capelli_inputs",
    "capelli_naive",
    "ch_inputs",
    "ch_nilpotent",
    "charpoly",
    "degrees_for",
    "matrices_from_json",
    "matrices_to_json",
    "parse_ring",
    "perm_sign",
    "random_grmatrix",
    "replay_reproducer",
    "run_campaign",
    "splitmix64",
    "staircase_units",
    "standard_dp",
    "standard_naive",
    "standard_product_eval",
    "standard_witness",
    "trial_rng",
    "young_alternating_sum",
]
