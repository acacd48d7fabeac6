"""Campaign runner: randomized and structured checks of every identity.

A Campaign names a target, a matrix dimension, a generator rank, a
coefficient ring, and a 64-bit seed.  Trials draw from one substream per
trial index, so reports are byte-stable for a fixed campaign (only the
elapsed-time field varies).  FAIL and COUNTEREXAMPLE_FOUND reports carry
a reproducer with the full inputs in the JSON matrix format, and
replay_reproducer re-runs exactly that check from the parsed inputs.

CHECKS is the one registry of those checks.  Each entry names the input
fields of its reproducer (written by _reproducer, read back through
_READERS), the evaluator and the predicate its value must satisfy.  Every
target, the three sharpness witnesses included, runs its trials through it,
and so does every replay: a FAIL from a violated check replays.

Every verify campaign embeds a mutation control: the same construction
with the degree or exponent lowered by one must come out nonzero.  An
evaluator that silently maps everything to zero cannot pass.

The open-question search never returns PASS.  It either finds a
counterexample or reports the exact slice of the atom space it covered.

A runner refuses a point past a cap (DegreeTooLargeError) before any
evaluator returns, so a caller may take the refusal as "skip this point".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BadCharacteristicError,
    DegenerateLambdasError,
    DegreeTooLargeError,
    DuplicateLambdasError,
    HypothesisViolationError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix, matrices_from_json, matrices_to_json
from .grassmann import GrassmannElem
from .identities import (
    DEFAULT_NAIVE_K,
    DEFAULT_STANDARD_DP_K,
    YoungSpec,
    capelli_dp,
    capelli_naive,
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
    detail,
)
from .ring import QQ, Ring, ZMOD, ZZ
from .sampling import (
    atom,
    atoms,  # unused here; the tests' oracles take the whole pool from harness
    random_coeff,
    random_degree1_grmatrix,
    random_grmatrix,
    trial_rng,
)
from .witnesses import (
    KIND_CAPELLI,
    KIND_CH,
    KIND_STANDARD,
    WitnessSpec,
    capelli_sharp_judge,
    capelli_witness,
    ceil_half,
    ch_exponent,
    ch_sharp_judge,
    staircase_units,
    standard_sharp_judge,
    witness_inputs,
)

THEOREM1 = "Theorem1"
LEMMA2 = "Lemma2"
YOUNG_LEMMA = "YoungLemma"
CAPELLI_BOUND = "CapelliBound"
STANDARD_COROLLARY = "StandardCorollary"
STANDARD_PRODUCT = "StandardProduct"
FILTRATION2 = "Filtration2"
CH_SHARPNESS = "CHSharpness"
CAPELLI_SHARPNESS = "CapelliSharpness"
STANDARD_SHARPNESS = "StandardSharpness"
OPEN_QUESTION = "OpenQuestion"
AMITSUR_LEVITZKI = "AmitsurLevitzki"

DEFAULT_TRIALS = 50
DEFAULT_BUDGET = 10000
_YOUNG_MAX_K = 7  # the largest Young shape; the all-singleton shapes reach it for every m


def degrees_for(n: int, m: int) -> Dict[str, int]:
    """The identity degrees and exponents attached to a grid point."""
    w2 = m // 2
    return {
        "ch_exponent": ceil_half(m) + 1,
        "capelli_x_degree": n * n + 2 * w2 + 1,
        "standard_degree": 2 * ((n * n + 1) // 2 + w2),
        "standard_product_degree": 2 * n * (w2 + 1),
        "open_question_degree": 2 * (n + w2),
        "witness_degree": 2 * (n + w2) - 1,
    }


@dataclass
class Campaign:
    """One verification or search run; fully determines its Report."""

    target: str
    n: int = 2
    m: int = 2
    ring: Ring = ZZ
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    sparsity: int = 2
    structured: int = 50
    random_samples: int = 0
    max_dp_k: int = DEFAULT_STANDARD_DP_K
    exploratory: bool = False
    lambdas: Optional[Tuple] = None
    parts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; expected one of {TARGETS}")
        if self.n < 1:
            raise ValueError(f"matrix dimension n must be >= 1, got {self.n}")
        for name in ("trials", "structured", "sparsity", "random_samples"):
            if (count := getattr(self, name)) < 0:
                raise ValueError(f"cannot draw {count} samples: {name} must be >= 0")
        if self.budget <= 0:
            raise ValueError("search budget must be positive")

    def to_dict(self) -> dict:
        if self.target in _SHARP:  # a witness campaign is its resolved spec
            return {"target": self.target, **_witness_spec(self).to_dict()}
        out = {
            "target": self.target,
            "n": self.n,
            "m": self.m,
            "ring": self.ring.name,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.target == OPEN_QUESTION:
            del out["trials"]  # the search draws no trials
            out["budget"] = self.budget
            out["random_samples"] = self.random_samples
        if self.target == LEMMA2:
            out["exploratory"] = self.exploratory
        if self.lambdas is not None:
            out["lambdas"] = [self.ring.format(self.ring.coerce(x)) for x in self.lambdas]
        if self.parts is not None:
            out["parts"] = list(self.parts)
        return out


def _field_spec(kind: str, n: int, m: int, ring: Ring, **kw) -> WitnessSpec:
    """Witness spec over the campaign ring if it qualifies, else over rat.

    Small prime fields can fail the characteristic gate or collapse the
    default eigenvalues; both push the control over to rat.
    """
    if ring.is_field():
        try:
            return WitnessSpec(kind=kind, n=n, m=m, ring=ring, **kw)
        except (BadCharacteristicError, DuplicateLambdasError):
            pass
    return WitnessSpec(kind=kind, n=n, m=m, ring=QQ, **kw)


# ----- the check registry -----


def _power(inputs: dict, max_k: int) -> GrMatrix:
    """f(A)^exponent, f the degree-0 charpoly or prod (x - lambda_i)."""
    A, lams = inputs["matrix"], inputs.get("lambdas")
    ch_exponent(A.m)  # the rank cap, before any power
    f = charpoly(A.component(0)) if lams is None else Poly.from_roots(A.ring, lams)
    return f.at_matrix(A) ** inputs["exponent"]


def _lemma2(inputs: dict, max_k: int) -> Tuple[GrMatrix, Dict[str, bool]]:
    """B = f(A) for f = prod (x - lambda_i), and the Lemma 2 checks on it."""
    A, lams = inputs["matrix"], inputs["lambdas"]
    ring, n = A.ring, A.n
    ch_exponent(A.m)  # the rank cap, before any power
    f = Poly.from_roots(ring, lams)
    fprime = f.derivative()
    B = f.at_matrix(A)
    A1 = A.component(1)
    B1 = B.component(1)
    g = [A1.entry(i + 1, i + 1).scale(fprime(lams[i])) for i in range(n)]
    expected_b1 = GrMatrix.diag(g)
    B2 = B.component(2)
    b2_plus, b2_minus = B2.diag_split()
    # (lambda_r - lambda_s) B2_rs = (f'(lambda_r) A1_rr + f'(lambda_s) A1_ss) A1_rs
    cleared = all(
        B2.entry(r, s).scale(ring.sub(lams[r - 1], lams[s - 1]))
        == (g[r - 1] + g[s - 1]) * A1.entry(r, s)
        for r in range(1, n + 1)
        for s in range(1, n + 1)
        if r != s
    )
    return B, {
        "degree0_vanishes": B.component(0).is_zero(),
        "degree1_diagonal_form": B1 == expected_b1,
        "degree1_squares_to_zero": (B1 * B1).is_zero(),
        "degree2_cleared_formula": cleared,
        "commutes_with_diag_part": B1 * b2_plus == b2_plus * B1,
        "anticommutes_with_offdiag_part": B1 * b2_minus == -(b2_minus * B1),
    }


def _young_hypothesis_check(elems: Sequence, spec: YoungSpec) -> None:
    """Pairwise product comparison; a violation means a bad generator."""
    for i, j in combinations(range(1, spec.k + 1), 2):
        a, b = elems[i - 1], elems[j - 1]
        anti = i in spec.anticommuting and j in spec.anticommuting
        if a * b != (-(b * a) if anti else b * a):
            declared = "anticommuting" if anti else "commuting"
            raise HypothesisViolationError(
                f"positions {i},{j} were declared {declared} but are not"
            )


def _young(inputs: dict, max_k: int) -> GrMatrix:
    elems = inputs["elems"]
    if len(elems) > max_k:
        raise DegreeTooLargeError(f"Young sums capped at k <= {max_k}, got {len(elems)}")
    spec = YoungSpec(
        k=len(elems),
        classes=tuple(tuple(c) for c in inputs["classes"]),
        anticommuting=frozenset(inputs["anticommuting"]),
    )
    _young_hypothesis_check(elems, spec)
    return young_alternating_sum(elems, spec)


def _capelli(inputs: dict, max_k: int, naive: bool = False) -> GrMatrix:
    evaluate = capelli_naive if naive else capelli_dp
    return evaluate(inputs["xs"], inputs["ys"], max_k=max_k)


def _standard(inputs: dict, max_k: int, naive: bool = False) -> GrMatrix:
    evaluate = standard_naive if naive else standard_dp
    return evaluate(inputs["mats"], max_k=max_k)


def _product(inputs: dict, max_k: int) -> GrMatrix:
    return standard_product_eval(inputs["mats"], max_k=max_k)


def _ch_sharp(inputs: dict, max_k: int) -> tuple:
    """(f, f(A)^c, f(A)^(c+1), [g_i(A)]) for f = prod (x - lambda_i), c = ceil(m/2)
    and g_i = (x - lambda_i)^c prod_{j != i} (x - lambda_j)^(c+1)."""
    A, lams = inputs["matrix"], inputs["lambdas"]
    c = ch_exponent(A.m)
    f = Poly.from_roots(A.ring, lams)
    B = f.at_matrix(A)
    Bc = B**c
    gs = [
        eval_product_form(A, [(lams[i], c)] + [(lams[j], c + 1) for j in range(A.n) if j != i])
        for i in range(A.n)
    ]
    return f, Bc, Bc * B, gs


def _zero_judge(value: GrMatrix, inputs: dict):
    return value.is_zero(), {"value_is_zero": value.is_zero()}


def _standard_judge(value: GrMatrix, inputs: dict):
    if value.is_zero():
        return _zero_judge(value, inputs)
    return False, {"value_is_zero": False, "value": value.compact_str()}


def _power_judge(value: GrMatrix, inputs: dict):
    zero = value.is_zero()
    return zero, {"exponent": inputs["exponent"], "power_is_zero": zero}


def _lemma2_judge(value, inputs: dict):
    checks = value[1]
    return all(checks.values()), dict(sorted(checks.items()))


def _young_judge(value: GrMatrix, inputs: dict):
    """Zero, or prod over classes (|class| - 1)! times the plain product."""
    if inputs["expect"] == "zero":
        return value.is_zero(), {"sum_is_zero": value.is_zero()}
    elems = inputs["elems"]
    ring = elems[0].ring
    fact = ring.one
    for c in inputs["classes"]:
        fact = ring.mul(fact, ring.factorial(len(c) - 1))
    prod = elems[0]
    for e in elems[1:]:
        prod = prod * e
    holds = value == prod.scale_coeff(fact)
    return holds, {"factorial_form_matches": holds}


def _filtration_judge(value: GrMatrix, inputs: dict):
    holds = value.in_filtration(2)
    return holds, {"in_filtration_2": holds}


def _outside_filtration_judge(value: GrMatrix, inputs: dict):
    # zero lies in filtration 2, so the negated check demands a nonzero value
    return value.in_filtration(2), _standard_judge(value, inputs)[1]


class Check(NamedTuple):
    """One registered check.

    A reproducer carries `fields` (and any of `optional`), read in this
    order through _READERS and written by _reproducer.
    evaluate(inputs, max_k) computes the value (the DP checks also take
    naive=True for the factorial-time oracle); judge(value, inputs) says
    whether the identity holds (negated for a nonvanishing check) and
    names the details of a replay, or of a sharpness report, in order.
    Evaluators look identity functions up by module name at call time,
    so patching a name here reaches campaigns and replays alike.
    """

    fields: Tuple[str, ...]
    evaluate: Callable
    judge: Callable
    negate: bool = False
    optional: Tuple[str, ...] = ()

    def holds(self, value, inputs: dict) -> bool:
        return self.judge(value, inputs)[0] != self.negate

    def details(self, value, inputs: dict) -> List[dict]:
        return [detail(name, v) for name, v in self.judge(value, inputs)[1].items()]


_POWER = ("matrix", "exponent")
_YOUNG = ("elems", "classes", "anticommuting", "expect")

CHECKS: Dict[str, Check] = {
    "power_zero": Check(_POWER, _power, _power_judge, optional=("lambdas",)),
    "power_nonzero": Check(_POWER, _power, _power_judge, True, ("lambdas",)),
    "lemma2": Check(("matrix", "lambdas"), _lemma2, _lemma2_judge),
    "young": Check(_YOUNG, _young, _young_judge, optional=("sizes",)),
    "capelli_zero": Check(("xs", "ys"), _capelli, _zero_judge),
    "capelli_nonzero": Check(("xs", "ys"), _capelli, _zero_judge, True),
    "standard_zero": Check(("mats",), _standard, _standard_judge),
    "standard_nonzero": Check(("mats",), _standard, _standard_judge, True),
    "product_zero": Check(("mats",), _product, _zero_judge),
    "filtration2": Check(("mats",), _standard, _filtration_judge),
    "standard_outside_filtration2": Check(("mats",), _standard, _outside_filtration_judge, True),
    "ch_sharp": Check(("matrix", "lambdas"), _ch_sharp, ch_sharp_judge),
    "capelli_sharp": Check(("xs", "ys", "parts"), _capelli, capelli_sharp_judge),
    "standard_sharp": Check(("mats",), _standard, standard_sharp_judge),
}


def _read_exponent(raw, inputs: dict) -> int:
    # Campaigns write at most ceil(m/2) + 1, and f(A)^(m+1) = 0 whenever
    # f(A) has no degree-0 part, so a larger exponent only costs time.
    m = inputs["matrix"].m
    if type(raw) is not int or not 0 <= raw <= m + 1:
        raise ValueError(f"exponent must be an integer in 0..{m + 1}, got {raw!r}")
    return raw


def _read_lambdas(raw, inputs: dict) -> Tuple:
    A = inputs["matrix"]
    if not (isinstance(raw, list) and len(raw) == A.n and all(isinstance(s, str) for s in raw)):
        raise ValueError(f"lambdas must be a list of {A.n} strings")
    return tuple(A.ring.parse(s) for s in raw)


def _read_matrices(raw, inputs: dict) -> List[GrMatrix]:
    if not isinstance(raw, list) or not raw:
        raise ValueError("expected a nonempty list of matrices")
    return matrices_from_json(raw)


def _plain(ok: Callable, what: str) -> Callable:
    """Reader of a field stored as is, accepted only if ok(raw)."""

    def read(raw, inputs: dict):
        if not ok(raw):
            raise ValueError(f"expected {what}, got {raw!r}")
        return raw

    return read


def _int_list(raw) -> bool:
    return isinstance(raw, list) and all(type(x) is int for x in raw)


def _read_parts(raw, inputs: dict) -> List[int]:
    # parts count generator copies among the xs, which bounds the factorials taken
    if not (_int_list(raw) and min(raw, default=0) >= 0 and sum(raw) < len(inputs["xs"])):
        raise ValueError(f"parts must be nonnegative and sum to less than len(xs), got {raw!r}")
    return raw


# input field -> its reader from JSON; a reader sees the fields its
# check lists before it
_READERS = {
    "matrix": lambda raw, inputs: GrMatrix.from_json(raw),
    "exponent": _read_exponent,
    "lambdas": _read_lambdas,
    "mats": _read_matrices,
    "xs": _read_matrices,
    "ys": _read_matrices,
    "elems": _read_matrices,
    "expect": _plain(lambda raw: raw in ("zero", "factorial"), "'zero' or 'factorial'"),
    "classes": _plain(
        lambda raw: isinstance(raw, list) and all(c and _int_list(c) for c in raw),
        "a list of nonempty integer lists",
    ),
    "anticommuting": _plain(_int_list, "a list of integers"),
    "sizes": _plain(_int_list, "a list of integers"),
    "parts": _read_parts,
}


def _reproducer(target: str, check: str, inputs: dict) -> dict:
    """The JSON reproducer of one check on one set of inputs."""
    out = {"target": target, "check": check}
    for key, value in inputs.items():
        if isinstance(value, GrMatrix):
            value = value.to_json()
        elif key == "lambdas":
            value = [inputs["matrix"].ring.format(x) for x in value]
        elif _READERS[key] is _read_matrices:
            value = matrices_to_json(value)
        out[key] = value
    return out


def _decode(check: Check, data: dict) -> dict:
    """A reproducer's inputs; a missing or malformed field is a ValueError."""
    inputs: dict = {}
    for key in check.fields + check.optional:
        if key not in data:
            if key in check.optional:
                continue
            raise ValueError(f"reproducer has no {key!r} field")
        try:
            inputs[key] = _READERS[key](data[key], inputs)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed reproducer field {key!r}: {exc!r}") from None
    return inputs


# ----- running checks -----


class _Trials:
    """One campaign's details, trial count, verdict and first reproducer."""

    def __init__(self, campaign: Campaign):
        self.campaign = campaign
        self.start = time.perf_counter()
        self.details: List[dict] = []
        self.trials = 0
        self.failed = False  # a violation, a failed control or cross-check
        self.reproducer: Optional[dict] = None
        self.value = None  # the value that violated a check
        self.naive: Optional[bool] = None  # the last run's oracle cross-check

    def note(self, name: str, value) -> None:
        self.details.append(detail(name, value))

    def draws(self, make: Callable, count: Optional[int] = None, first: int = 0):
        """(j, make(rng)) on trial streams first + j, j < count (default: trials)."""
        c = self.campaign
        for j in range(c.trials if count is None else count):
            yield j, make(trial_rng(c.seed, first + j))

    def run(
        self,
        check: str,
        draws: Iterable,
        label: Optional[str] = None,
        inspect: Optional[Callable] = None,
        cross_check: bool = False,
    ) -> int:
        """Evaluate a check on each (index, inputs) draw until one violates it.

        cross_check compares the first value with the check's naive
        oracle into self.naive; inspect(index, inputs, value) sees each
        value.  A violation notes (label, index), keeps its reproducer and
        ends the run.  Returns the number of draws on which the check held.
        """
        c = self.campaign
        entry = CHECKS[check]
        before = self.trials
        self.naive = None
        for index, inputs in draws:
            value = entry.evaluate(inputs, c.max_dp_k)
            if cross_check and self.trials == before:
                self.naive = entry.evaluate(inputs, DEFAULT_NAIVE_K, naive=True) == value
            self.trials += 1
            if inspect is not None:
                inspect(index, inputs, value)
            if not entry.holds(value, inputs):
                if label is not None:
                    self.note(label, index)
                self.failed = True
                self.reproducer = _reproducer(c.target, check, inputs)
                self.value = value
                return self.trials - before - 1
        return self.trials - before

    def control(self, check: str, inputs: dict) -> bool:
        """A mutation control; its reproducer is kept unless one came before."""
        entry = CHECKS[check]
        value = entry.evaluate(inputs, self.campaign.max_dp_k)
        holds = entry.holds(value, inputs)
        if not holds:
            self.failed = True
            self.reproducer = self.reproducer or _reproducer(
                self.campaign.target, check, inputs
            )
        return holds

    def finish(self, search: bool = False) -> Report:
        ok = not self.failed
        if search:
            verdict = NO_COUNTEREXAMPLE_IN_BUDGET if ok else COUNTEREXAMPLE_FOUND
        else:
            verdict = PASS if ok else FAIL
        return Report(
            campaign=self.campaign.to_dict(),
            verdict=verdict,
            trials=self.trials,
            details=self.details,
            reproducer=None if ok else self.reproducer,
            elapsed_ms=int((time.perf_counter() - self.start) * 1000),
        )


def _random_mats(campaign: Campaign, rng: random.Random, k: int) -> List[GrMatrix]:
    c = campaign
    return [random_grmatrix(rng, c.n, c.m, c.ring, c.sparsity) for _ in range(k)]


def _atom_pool(c: Campaign) -> Tuple[Callable[[int], GrMatrix], int]:
    """atoms(n, m, ring)[i], built on first use, and the number of atoms."""
    return lru_cache(maxsize=None)(lambda i: atom(c.n, c.m, c.ring, i)), c.n * c.n << c.m


def _atom_mats(rng: random.Random, pool: Callable[[int], GrMatrix], total: int, k: int):
    return [pool(rng.randrange(total)) for _ in range(k)]


# ----- nilpotency of the characteristic polynomial -----


def verify_theorem1(campaign: Campaign) -> Report:
    """f(A)^(ceil(m/2)+1) = 0 for random A; control at one exponent lower."""
    n, m, ring = campaign.n, campaign.m, campaign.ring
    t = _Trials(campaign)
    e = ceil_half(m) + 1
    t.note("exponent", e)
    draws = t.draws(lambda rng: {
        "matrix": random_grmatrix(rng, n, m, ring, campaign.sparsity), "exponent": e
    })
    t.run("power_zero", draws, "first_failure_trial")
    if t.failed:
        t.note("value", str(t.value))
    spec = _field_spec(KIND_CH, n, m, ring, lambdas=campaign.lambdas)
    control = t.control("power_nonzero", {**witness_inputs(spec), "exponent": e - 1})
    t.note("control_lower_exponent_nonzero", control)
    if spec.ring != ring:
        t.note("control_ring", spec.ring.name)
    return t.finish()


# ----- structure of f(A) by degree -----


def _draw_lambdas(rng: random.Random, n: int, ring: Ring) -> Tuple:
    """n distinct field elements; sampling without replacement cannot collide."""
    if ring.kind == ZMOD:
        p = ring.characteristic
        if p < n:
            raise DegenerateLambdasError(
                f"cannot pick {n} distinct eigenvalues in a field of size {p}"
            )
        return tuple(ring.embed(x) for x in rng.sample(range(p), n))
    return tuple(ring.embed(x) for x in rng.sample(range(-9, 10), n))


def verify_lemma2(campaign: Campaign) -> Report:
    """Degree-0/1/2 structure of f(A) for A = diag(distinct) + degree-1.

    Asserted only for matrices with no components of degree 2 and up;
    exploratory mode additionally evaluates the degree-2 formulas on
    fully random matrices and records the observations without letting
    them touch the verdict.
    """
    n, m, ring = campaign.n, campaign.m, campaign.ring
    if campaign.trials == 0:
        raise ValueError("Lemma2 needs trials >= 1: its control reads the trials' f(A)")
    if not ring.is_field():
        raise BadCharacteristicError(
            f"eigenvalue differences must be invertible; {ring.name} is not a field"
        )
    fixed = campaign.lambdas
    if fixed is not None:
        if len(fixed) != n:
            raise LengthMismatchError(f"need {n} eigenvalues, got {len(fixed)}")
        fixed = tuple(ring.coerce(x) for x in fixed)
        if len(set(fixed)) != n:
            raise DegenerateLambdasError("fixed eigenvalues must be distinct")

    def draw(rng):
        lams = _draw_lambdas(rng, n, ring) if fixed is None else fixed
        A1 = random_degree1_grmatrix(rng, n, m, ring, campaign.sparsity)
        A0 = GrMatrix.diag([GrassmannElem.scalar(lam, m, ring) for lam in lams])
        return {"matrix": A0 + A1, "lambdas": lams}

    t = _Trials(campaign)
    b1_nonzero = []
    t.run("lemma2", t.draws(draw), "first_failure_trial", lambda j, inputs, value: (
        b1_nonzero.append(not value[0].component(1).is_zero())
    ))
    if t.failed:
        t.note("failed_checks", sorted(k for k, v in t.value[1].items() if not v))
    if m >= 1:
        t.note("control_degree1_part_nonzero", any(b1_nonzero))
        t.failed |= not any(b1_nonzero)
    else:
        t.note("rank_zero_trivial", True)
    if campaign.exploratory and m >= 2:
        observed = []
        for j in range(min(campaign.trials, 10)):
            rng = trial_rng(campaign.seed, 10**6 + j)
            lams = _draw_lambdas(rng, n, ring)
            A0 = GrMatrix.diag([GrassmannElem.scalar(lam, m, ring) for lam in lams])
            A = A0 + random_grmatrix(rng, n, m, ring, campaign.sparsity)
            checks = _lemma2({"matrix": A, "lambdas": lams}, campaign.max_dp_k)[1]
            observed.append({k: v for k, v in sorted(checks.items())})
        t.note("exploratory_full_matrix_observations", observed)
    return t.finish()


# ----- alternating sums over Young subgroups -----


def _young_inputs(
    classes, anti, n: int, m: int, ring: Ring, central: Callable, expect: str, **extra
) -> dict:
    """Distinct generators times e11 at the anticommuting positions and
    central(e11) elsewhere, so the hypothesis holds by construction (it
    is re-verified on evaluation)."""
    classes, anti = [sorted(c) for c in classes], sorted(anti)
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    elems: List[GrMatrix] = []
    g = 1
    for p in range(1, sum(map(len, classes)) + 1):
        if p in anti:
            elems.append(e11.scale(GrassmannElem.generator(g, m, ring)))
            g += 1
        else:
            elems.append(central(e11))
    return dict(expect=expect, classes=classes, anticommuting=anti, elems=elems, **extra)


def _young_instance(
    rng: random.Random, k: int, t: int, n: int, m: int, ring: Ring
) -> dict:
    """Shape with |M| = t anticommuting positions, one central per class;
    central positions carry random nonzero scalars times e11."""
    positions = list(range(1, k + 1))
    anti = sorted(rng.sample(positions, t))
    central = [p for p in positions if p not in anti]
    classes = {c: [c] for c in central}
    for p in anti:
        classes[rng.choice(central)].append(p)
    scalar = lambda e11: e11.scale_coeff(random_coeff(rng, ring))  # noqa: E731
    return _young_inputs(classes.values(), anti, n, m, ring, scalar, "zero")


def _odd_compositions(k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1, 2):
        for rest in _odd_compositions(k - first):
            yield (first,) + rest


def verify_young_lemma(campaign: Campaign) -> Report:
    """(a) odd anticommuting count sums to zero, random shapes, k <= 7;
    (b) odd interval shapes factor as prod (size-1)! times the plain
    product; plus an all-singleton control that must be nonzero."""
    n, m, ring = campaign.n, campaign.m, campaign.ring
    if _YOUNG_MAX_K > campaign.max_dp_k:
        raise DegreeTooLargeError(
            f"Young sums capped at k <= {campaign.max_dp_k}, got {_YOUNG_MAX_K}"
        )
    t = _Trials(campaign)

    shapes_per_k = max(20, -(-campaign.trials // 5))

    def odd_shapes():
        for k in range(3, _YOUNG_MAX_K + 1):
            odd_sizes = list(range(1, min(k - 1, m) + 1, 2))
            for j in range(shapes_per_k):
                rng = trial_rng(campaign.seed, (k - 3) * shapes_per_k + j)
                yield [k, j], _young_instance(rng, k, rng.choice(odd_sizes), n, m, ring)

    if m >= 1:
        zero_shapes = t.run("young", odd_shapes(), "first_failure_shape")
        t.note("shapes_per_size", shapes_per_k)
        t.note("odd_shapes_zero", zero_shapes)
    else:
        t.note("odd_shapes_skipped_no_generators", True)

    skipped = []

    def interval_shapes():
        for k in range(1, _YOUNG_MAX_K + 1):
            for sizes in _odd_compositions(k):
                if sum(s - 1 for s in sizes) > m:
                    skipped.append(sizes)
                    continue
                spec = YoungSpec.from_interval_sizes(sizes)
                yield list(sizes), _young_inputs(
                    spec.classes, spec.anticommuting, n, m, ring, lambda e11: e11,
                    "factorial", sizes=list(sizes),
                )

    if not t.failed:
        factored = t.run("young", interval_shapes(), "first_failure_sizes")
        t.note("interval_shapes_factored", factored)
        if skipped:
            t.note("interval_shapes_skipped_for_rank", len(skipped))

    singles = YoungSpec.from_interval_sizes((1, 1, 1))
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    control = young_alternating_sum([e11, e11, e11], singles) == e11
    t.note("control_singleton_identity_product", control)
    t.failed |= not control
    return t.finish()


# ----- vanishing of the bridged alternating sum -----


def verify_capelli_bound(campaign: Campaign) -> Report:
    """d_k = 0 at k = n^2 + 2*floor(m/2) + 1 on random and atom inputs;
    the explicit witness one degree lower must stay nonzero."""
    n, m, ring = campaign.n, campaign.m, campaign.ring
    t = _Trials(campaign)
    k = degrees_for(n, m)["capelli_x_degree"]
    t.note("x_degree", k)
    draws = t.draws(lambda rng: {
        "xs": _random_mats(campaign, rng, k), "ys": _random_mats(campaign, rng, k + 1)
    })
    t.run("capelli_zero", draws, "first_failure_trial", cross_check=k <= DEFAULT_NAIVE_K)
    if t.naive is False:
        # the cross-check ran on trial 0, ahead of any failure
        t.details.insert(1, detail("naive_cross_check", False))
        t.failed = True
    elif t.naive and not t.failed:
        t.note("naive_cross_check", True)

    pool, total = _atom_pool(campaign)
    if not t.failed:
        draws = t.draws(
            lambda rng: {
                "xs": _atom_mats(rng, pool, total, k), "ys": _atom_mats(rng, pool, total, k + 1)
            },
            campaign.structured,
            campaign.trials,
        )
        zero = t.run("capelli_zero", draws, "first_failure_structured")
        t.note("structured_trials_zero", zero)

    spec = _field_spec(KIND_CAPELLI, n, m, ring, parts=campaign.parts)
    xs_w, ys_w = capelli_witness(spec)
    control = t.control("capelli_nonzero", {"xs": xs_w, "ys": ys_w})
    t.note("control_witness_degree", len(xs_w))
    t.note("control_lower_degree_nonzero", control)
    if spec.ring != ring:
        t.note("control_ring", spec.ring.name)
    return t.finish()


# ----- vanishing of the standard alternating sum -----


def _standard_zero_pass(t: _Trials, k: int, label: str) -> None:
    """Random + atom trials of s_k = 0, then the oracle cross-check."""
    c = t.campaign
    before = t.trials
    draws = t.draws(lambda rng: {"mats": _random_mats(c, rng, k)})
    t.run("standard_zero", draws, f"{label}_first_failure_trial", cross_check=k <= DEFAULT_NAIVE_K)
    naive = t.naive
    if t.failed:
        return
    pool, total = _atom_pool(c)
    draws = t.draws(lambda rng: {"mats": _atom_mats(rng, pool, total, k)}, c.structured, c.trials)
    t.run("standard_zero", draws, f"{label}_first_failure_structured")
    if not t.failed:
        t.note(f"{label}_trials_zero", t.trials - before)
        if naive is not None:
            t.note(f"{label}_naive_cross_check", naive)
            t.failed = not naive


def _scalar_mats(campaign: Campaign, rng: random.Random, k: int) -> List[GrMatrix]:
    """k matrices with random nonzero degree-0 entries."""
    n, m, ring = campaign.n, campaign.m, campaign.ring

    def entry():
        return GrassmannElem.scalar(random_coeff(rng, ring), m, ring)

    return [GrMatrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(k)]


def verify_standard_bounds(campaign: Campaign) -> Report:
    """StandardCorollary, StandardProduct, Filtration2 and AmitsurLevitzki.

    Corollary: s_k = 0 at both proved degrees.  Product: the product of
    s_2n blocks vanishes at total degree 2n(floor(m/2)+1).  Filtration2:
    each s_2n block lands in the span of degree >= 2 terms.
    Amitsur-Levitzki: s_2n = 0 on degree-0 matrices.  All four share the
    staircase mutation control one degree lower.
    """
    n, m, target = campaign.n, campaign.m, campaign.target
    t = _Trials(campaign)
    degs = degrees_for(n, m)
    if target == STANDARD_COROLLARY:
        k1, k2 = degs["standard_degree"], degs["standard_product_degree"]
        if max(k1, k2) > campaign.max_dp_k:
            raise DegreeTooLargeError(
                f"DP evaluation capped at k <= {campaign.max_dp_k}, got {max(k1, k2)}"
            )
        t.note("degree", k1)
        t.note("comparison_degree", k2)
        _standard_zero_pass(t, k1, "corollary")
        if not t.failed and k2 != k1:
            _standard_zero_pass(t, k2, "product_degree")
    elif target == AMITSUR_LEVITZKI:
        k = 2 * n
        t.note("degree", k)
        draws = t.draws(lambda rng: {"mats": _scalar_mats(campaign, rng, k)})
        t.run("standard_zero", draws, "first_failure_trial", cross_check=k <= DEFAULT_NAIVE_K)
        if t.naive is not None:
            t.note("naive_cross_check", t.naive)
            t.failed |= not t.naive
    elif target == STANDARD_PRODUCT:
        k = degs["standard_product_degree"]
        t.note("degree", k)
        t.note("blocks", m // 2 + 1)
        draws = t.draws(lambda rng: {"mats": _random_mats(campaign, rng, k)})
        t.run("product_zero", draws, "first_failure_trial")
        if not t.failed:
            t.note("trials_zero", t.trials)
    else:
        t.note("block_degree", 2 * n)
        draws = t.draws(lambda rng: {"mats": _random_mats(campaign, rng, 2 * n)})
        t.note("blocks_in_filtration_2", t.run("filtration2", draws, "first_failure_trial"))

    stairs = {"mats": staircase_units(n, m, campaign.ring)}
    if target == FILTRATION2:
        control = t.control("standard_outside_filtration2", stairs)
        t.note("control_staircase_outside_filtration", control)
    else:
        control = t.control("standard_nonzero", stairs)
        which = "staircase" if target == AMITSUR_LEVITZKI else "witness"
        t.note(f"control_{which}_degree", 2 * n - 1)
        t.note("control_lower_degree_nonzero", control)
    return t.finish()


verify_amitsur_levitzki = verify_standard_bounds


# ----- sharpness witnesses -----

# sharpness target -> witness kind K, whose check is "K_sharp"
_SHARP = {
    CH_SHARPNESS: KIND_CH,
    CAPELLI_SHARPNESS: KIND_CAPELLI,
    STANDARD_SHARPNESS: KIND_STANDARD,
}


def _witness_spec(c: Campaign) -> WitnessSpec:
    kind = _SHARP[c.target]
    lambdas = c.lambdas if kind == KIND_CH else None
    parts = c.parts if kind == KIND_CAPELLI else None
    return WitnessSpec(kind=kind, n=c.n, m=c.m, ring=c.ring, lambdas=lambdas, parts=parts)


def verify_sharpness(campaign: Campaign) -> Report:
    """One trial: the sharpness check of the witness one degree or
    exponent below the bound.  The report's details are the judge's,
    then the naive oracle's cross-check of a small DP value."""
    spec = _witness_spec(campaign)
    check, inputs = f"{spec.kind}_sharp", witness_inputs(spec)
    t = _Trials(campaign)

    def note_details(index, inputs: dict, value) -> None:
        t.details.extend(CHECKS[check].details(value, inputs))

    dp_args = inputs.get("xs", inputs.get("mats"))  # None for ch_sharp
    oracle = dp_args is not None and len(dp_args) <= DEFAULT_NAIVE_K
    t.run(check, [(0, inputs)], inspect=note_details, cross_check=oracle)
    if t.naive is not None:
        t.note("naive_cross_check", t.naive)
        t.failed |= not t.naive
    return t.finish()


# ----- the open question -----


def search_open_question(campaign: Campaign) -> Report:
    """Search s_k = 0, k = 2(n + floor(m/2)), on k-subsets of atoms().

    The walk is lexicographic and depth-first.  Atoms whose masks meet
    multiply to zero, whatever follows, so pruning counts the
    C(total - i - 1, k - d) tuples behind atom i at depth d as
    considered and pruned in one step.
    """
    c = campaign
    t = _Trials(c)
    k = degrees_for(c.n, c.m)["open_question_degree"]
    if k > c.max_dp_k:
        raise DegreeTooLargeError(f"DP evaluation capped at k <= {c.max_dp_k}, got {k}")
    w = 1 << c.m
    pool, total = _atom_pool(c)
    if c.random_samples and k > total:
        raise ValueError(f"cannot draw {c.random_samples} samples of k={k} of {total} atoms")
    t.note("degree", k)
    t.note("atoms", total)
    seen = 0

    def walk(start, prefix, union):
        nonlocal seen
        d = len(prefix) + 1
        for i in range(start, total - k + d):
            if seen >= c.budget:
                return
            if union & i % w:
                seen += min(comb(total - i - 1, k - d), c.budget - seen)
            elif d < k:
                yield from walk(i + 1, prefix + [pool(i)], union | i % w)
            else:
                seen += 1
                yield None, {"mats": prefix + [pool(i)]}

    t.run("standard_zero", walk(0, [], 0))
    if t.failed:
        t.note("counterexample_value", t.value.compact_str())
    evaluated = t.trials
    t.note("tuples_considered", seen)
    t.note("tuples_evaluated", evaluated)
    t.note("tuples_pruned", seen - evaluated)
    t.note("exhausted", seen == comb(total, k) and not t.failed)

    if not t.failed and c.random_samples:
        draws = t.draws(
            lambda rng: {"mats": [pool(i) for i in sorted(rng.sample(range(total), k))]},
            c.random_samples,
        )
        t.run("standard_zero", draws)
        t.note("random_samples", t.trials - evaluated)
    return t.finish(search=True)


# ----- dispatch -----

# target -> runner, in the order the command line lists the targets
_RUNNERS: Dict[str, Callable[[Campaign], Report]] = {
    THEOREM1: verify_theorem1,
    LEMMA2: verify_lemma2,
    YOUNG_LEMMA: verify_young_lemma,
    CAPELLI_BOUND: verify_capelli_bound,
    STANDARD_COROLLARY: verify_standard_bounds,
    STANDARD_PRODUCT: verify_standard_bounds,
    FILTRATION2: verify_standard_bounds,
    CH_SHARPNESS: verify_sharpness,
    CAPELLI_SHARPNESS: verify_sharpness,
    STANDARD_SHARPNESS: verify_sharpness,
    OPEN_QUESTION: search_open_question,
    AMITSUR_LEVITZKI: verify_standard_bounds,
}
TARGETS = tuple(_RUNNERS)


def run_campaign(campaign: Campaign) -> Report:
    """Run any target, sharpness included, through its runner."""
    return _RUNNERS[campaign.target](campaign)


# ----- reproducer replay -----


def replay_reproducer(data: dict, max_dp_k: int = DEFAULT_STANDARD_DP_K) -> Report:
    """Re-run the exact check a reproducer came from.

    The reproducer is decoded through CHECKS: an unknown check or
    target, a missing field, a field of the wrong type, an empty matrix
    list or an exponent outside 0..m+1 raises ValueError before any
    work starts.  The DP checks honour the same degree guard as a
    campaign: a reproducer with more than max_dp_k matrices raises
    DegreeTooLargeError instead of starting the DP.

    PASS means the stored inputs satisfy the identity after all; FAIL
    (or COUNTEREXAMPLE_FOUND for the open question) confirms the
    violation still reproduces.
    """
    start = time.perf_counter()
    if not isinstance(data, dict):
        raise ValueError("a reproducer is a JSON object")
    check, target = data.get("check"), data.get("target")
    entry = CHECKS.get(check) if isinstance(check, str) else None
    if entry is None:
        raise ValueError(f"unknown reproducer check {check!r}")
    if target not in TARGETS:
        raise ValueError(f"unknown reproducer target {target!r}")
    inputs = _decode(entry, data)
    value = entry.evaluate(inputs, max_dp_k)
    holds = entry.holds(value, inputs)
    return Report(
        campaign={"target": target, "replay": True, "check": check},
        verdict=PASS if holds else COUNTEREXAMPLE_FOUND if target == OPEN_QUESTION else FAIL,
        trials=1,
        details=entry.details(value, inputs),
        reproducer=None if holds else data,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )
