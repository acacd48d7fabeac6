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
    DegenerateLambdasError,
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
    search_open_question,
    verify_amitsur_levitzki,
    verify_capelli_bound,
    verify_lemma2,
    verify_standard_bounds,
    verify_theorem1,
    verify_young_lemma,
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
from .poly import Poly, charpoly, eval_product_form
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
    WitnessSpec,
    capelli_witness,
    ch_nilpotent,
    ch_witness,
    staircase_units,
    standard_witness,
)

__all__ = [
    "BadCharacteristicError",
    "BadPartitionError",
    "COUNTEREXAMPLE_FOUND",
    "Campaign",
    "ContextMismatchError",
    "DegenerateLambdasError",
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
    "WitnessSpec",
    "YoungSpec",
    "ZZ",
    "atoms",
    "capelli_dp",
    "capelli_naive",
    "capelli_witness",
    "ch_nilpotent",
    "ch_witness",
    "charpoly",
    "degrees_for",
    "eval_product_form",
    "matrices_from_json",
    "matrices_to_json",
    "parse_ring",
    "perm_sign",
    "random_grmatrix",
    "replay_reproducer",
    "run_campaign",
    "search_open_question",
    "splitmix64",
    "staircase_units",
    "standard_dp",
    "standard_naive",
    "standard_product_eval",
    "standard_witness",
    "trial_rng",
    "verify_amitsur_levitzki",
    "verify_capelli_bound",
    "verify_lemma2",
    "verify_standard_bounds",
    "verify_theorem1",
    "verify_young_lemma",
    "young_alternating_sum",
]
