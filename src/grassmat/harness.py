"""Campaign runner: randomized and structured checks of every identity.

A Campaign names a target, a matrix dimension, a generator rank, a
coefficient ring, and a 64-bit seed.  Trials draw from one substream per
trial index, so reports are byte-stable for a fixed campaign (only the
elapsed-time field varies).  FAIL and COUNTEREXAMPLE_FOUND reports carry
a reproducer with the full inputs in the JSON matrix format, and
replay_reproducer re-runs exactly that check from the parsed inputs.

Every verify campaign embeds a mutation control: the same construction
with the degree or exponent lowered by one must come out nonzero.  An
evaluator that silently maps everything to zero cannot pass.

The open-question search never returns PASS.  It either finds a
counterexample or reports the exact slice of the atom space it covered.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BadCharacteristicError,
    DegenerateLambdasError,
    DuplicateLambdasError,
    HypothesisViolationError,
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
from .poly import Poly, charpoly
from .report import (
    COUNTEREXAMPLE_FOUND,
    FAIL,
    NO_COUNTEREXAMPLE_IN_BUDGET,
    PASS,
    Report,
    detail,
)
from .ring import QQ, RAT, Ring, ZMOD, ZZ, parse_ring
from .witnesses import (
    KIND_CAPELLI,
    KIND_CH,
    KIND_STANDARD,
    WitnessSpec,
    capelli_sharpness_verify,
    capelli_witness,
    ceil_half,
    ch_sharpness_verify,
    ch_witness,
    staircase_units,
    standard_sharpness_verify,
    standard_witness,
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

TARGETS = (
    THEOREM1,
    LEMMA2,
    YOUNG_LEMMA,
    CAPELLI_BOUND,
    STANDARD_COROLLARY,
    STANDARD_PRODUCT,
    FILTRATION2,
    CH_SHARPNESS,
    CAPELLI_SHARPNESS,
    STANDARD_SHARPNESS,
    OPEN_QUESTION,
    AMITSUR_LEVITZKI,
)

DEFAULT_TRIALS = 50
DEFAULT_BUDGET = 10000


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
    budget: Optional[int] = None
    sparsity: int = 2
    structured: int = 50
    random_samples: int = 0
    max_naive_k: int = DEFAULT_NAIVE_K
    max_dp_k: int = DEFAULT_STANDARD_DP_K
    young_max_order: int = 10**6
    exploratory: bool = False
    prune: bool = True
    lambdas: Optional[Tuple] = None
    parts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; expected one of {TARGETS}")

    def to_dict(self) -> dict:
        out = {
            "target": self.target,
            "n": self.n,
            "m": self.m,
            "ring": self.ring.name,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.target == OPEN_QUESTION:
            out["budget"] = self.budget if self.budget is not None else DEFAULT_BUDGET
            out["prune"] = self.prune
            out["random_samples"] = self.random_samples
        if self.target == LEMMA2:
            out["exploratory"] = self.exploratory
        if self.lambdas is not None:
            out["lambdas"] = [self.ring.format(self.ring.coerce(x)) for x in self.lambdas]
        if self.parts is not None:
            out["parts"] = list(self.parts)
        return out


# ----- seeding -----

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One scramble step of the splitmix64 finalizer on 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_rng(seed: int, stream: int) -> random.Random:
    """Generator for one trial substream.

    The campaign seed and the stream index mix through splitmix64, so
    neighboring streams are unrelated and (seed, stream) pins every
    draw.  Campaigns use stream = trial index, with structured passes
    offset past the random trials.
    """
    return random.Random(splitmix64((seed + (stream + 1) * _GOLDEN) & _MASK64))


_SMALL_NONZERO = tuple(x for x in range(-9, 10) if x != 0)


def random_coeff(rng: random.Random, ring: Ring):
    """Small nonzero coefficient: [-9,9] over int, uniform nonzero mod p,
    small fractions over rat."""
    if ring.kind == ZMOD:
        return rng.randrange(1, ring.characteristic)
    num = rng.choice(_SMALL_NONZERO)
    if ring.kind == RAT:
        return Fraction(num, rng.randint(1, 4))
    return num


def random_grassmann(rng: random.Random, m: int, ring: Ring, sparsity: int) -> GrassmannElem:
    """Sum of `sparsity` random basis monomials with random coefficients."""
    acc = GrassmannElem.zero(m, ring)
    for _ in range(sparsity):
        mask = rng.randrange(1 << m)
        acc = acc + GrassmannElem.basis(mask, m, ring).scale(random_coeff(rng, ring))
    return acc


def random_grmatrix(
    rng: random.Random, n: int, m: int, ring: Ring, sparsity: int
) -> GrMatrix:
    """Entrywise random_grassmann draws; sparsity 0 gives the zero matrix."""
    return GrMatrix(
        [
            [random_grassmann(rng, m, ring, sparsity) for _ in range(n)]
            for _ in range(n)
        ]
    )


def random_degree1_grmatrix(
    rng: random.Random, n: int, m: int, ring: Ring, sparsity: int
) -> GrMatrix:
    """Entries are sums of single generators; the zero matrix when m = 0."""
    def entry():
        acc = GrassmannElem.zero(m, ring)
        for _ in range(sparsity):
            if m:
                g = rng.randint(1, m)
                acc = acc + GrassmannElem.generator(g, m, ring).scale(
                    random_coeff(rng, ring)
                )
        return acc

    return GrMatrix([[entry() for _ in range(n)] for _ in range(n)])


def atoms(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """All b * e_rs with b a basis monomial, ordered by (r, s, mask).

    By multilinearity, an alternating identity vanishes on all matrices
    iff it vanishes on all tuples of these.
    """
    out = []
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            unit = GrMatrix.unit(n, m, ring, r, s)
            for mask in range(1 << m):
                out.append(unit.scale(GrassmannElem.basis(mask, m, ring)))
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


def _finish(
    campaign: Campaign,
    ok: bool,
    trials: int,
    details: List[dict],
    reproducer: Optional[dict],
    start: float,
    search: bool = False,
) -> Report:
    if search:
        verdict = NO_COUNTEREXAMPLE_IN_BUDGET if ok else COUNTEREXAMPLE_FOUND
    else:
        verdict = PASS if ok else FAIL
    return Report(
        campaign=campaign.to_dict(),
        verdict=verdict,
        trials=trials,
        details=details,
        reproducer=None if ok else reproducer,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )


# ----- nilpotency of the characteristic polynomial -----


def verify_theorem1(campaign: Campaign) -> Report:
    """f(A)^(ceil(m/2)+1) = 0 for random A; control at one exponent lower."""
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    e = ceil_half(m) + 1
    details = [detail("exponent", e)]
    ok = True
    reproducer = None
    trials = 0
    for t in range(campaign.trials):
        rng = trial_rng(campaign.seed, t)
        A = random_grmatrix(rng, n, m, ring, campaign.sparsity)
        f = charpoly(A.component(0))
        value = f.at_matrix(A) ** e
        trials += 1
        if not value.is_zero():
            ok = False
            details.append(detail("first_failure_trial", t))
            details.append(detail("value", str(value)))
            reproducer = {
                "target": campaign.target,
                "check": "power_zero",
                "exponent": e,
                "matrix": A.to_json(),
            }
            break
    spec = _field_spec(KIND_CH, n, m, ring, lambdas=campaign.lambdas)
    W = ch_witness(spec)
    fw = Poly.from_roots(spec.ring, spec.resolved_lambdas())
    control = not (fw.at_matrix(W) ** (e - 1)).is_zero()
    details.append(detail("control_lower_exponent_nonzero", control))
    if spec.ring != ring:
        details.append(detail("control_ring", spec.ring.name))
    if not control and reproducer is None:
        reproducer = {
            "target": campaign.target,
            "check": "power_nonzero",
            "exponent": e - 1,
            "lambdas": [spec.ring.format(x) for x in spec.resolved_lambdas()],
            "matrix": W.to_json(),
        }
    return _finish(campaign, ok and control, trials, details, reproducer, start)


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
    pool = range(-9, 10)
    return tuple(ring.embed(x) for x in rng.sample(pool, n))


def _lemma2_checks(
    A1: GrMatrix, B: GrMatrix, lams: Tuple, fprime: Poly, ring: Ring
) -> Dict[str, bool]:
    n = A1.n
    B1 = B.component(1)
    expected_b1 = GrMatrix.diag(
        [A1.entry(i + 1, i + 1).scale(fprime(lams[i])) for i in range(n)]
    )
    B2 = B.component(2)
    b2_plus, b2_minus = B2.diag_split()
    cleared = True
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r == s:
                continue
            diff = ring.sub(lams[r - 1], lams[s - 1])
            lhs = B2.entry(r, s).scale(diff)
            rhs = (
                A1.entry(r, r).scale(fprime(lams[r - 1]))
                + A1.entry(s, s).scale(fprime(lams[s - 1]))
            ) * A1.entry(r, s)
            if lhs != rhs:
                cleared = False
    return {
        "degree0_vanishes": B.component(0).is_zero(),
        "degree1_diagonal_form": B1 == expected_b1,
        "degree1_squares_to_zero": (B1 * B1).is_zero(),
        "degree2_cleared_formula": cleared,
        "commutes_with_diag_part": B1 * b2_plus == b2_plus * B1,
        "anticommutes_with_offdiag_part": B1 * b2_minus == -(b2_minus * B1),
    }


def verify_lemma2(campaign: Campaign) -> Report:
    """Degree-0/1/2 structure of f(A) for A = diag(distinct) + degree-1.

    Asserted only for matrices with no components of degree 2 and up;
    exploratory mode additionally evaluates the degree-2 formulas on
    fully random matrices and records the observations without letting
    them touch the verdict.
    """
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    if not ring.is_field():
        raise BadCharacteristicError(
            f"eigenvalue differences must be invertible; {ring.name} is not a field"
        )
    details: List[dict] = []
    ok = True
    reproducer = None
    trials = 0
    control_b1_nonzero = False
    for t in range(campaign.trials):
        rng = trial_rng(campaign.seed, t)
        if campaign.lambdas is not None:
            lams = tuple(ring.coerce(x) for x in campaign.lambdas)
            if len(set(lams)) != len(lams):
                raise DegenerateLambdasError("fixed eigenvalues must be distinct")
        else:
            lams = _draw_lambdas(rng, n, ring)
        A1 = random_degree1_grmatrix(rng, n, m, ring, campaign.sparsity)
        A0 = GrMatrix.diag(
            [GrassmannElem.scalar(lam, m, ring) for lam in lams]
        )
        A = A0 + A1
        f = Poly.from_roots(ring, lams)
        B = f.at_matrix(A)
        checks = _lemma2_checks(A1, B, lams, f.derivative(), ring)
        if not B.component(1).is_zero():
            control_b1_nonzero = True
        trials += 1
        if not all(checks.values()):
            ok = False
            details.append(detail("first_failure_trial", t))
            details.append(detail("failed_checks", sorted(k for k, v in checks.items() if not v)))
            reproducer = {
                "target": campaign.target,
                "check": "lemma2",
                "lambdas": [ring.format(x) for x in lams],
                "matrix": A.to_json(),
            }
            break
    if m >= 1:
        details.append(detail("control_degree1_part_nonzero", control_b1_nonzero))
        ok = ok and control_b1_nonzero
    else:
        details.append(detail("rank_zero_trivial", True))
    if campaign.exploratory and m >= 2:
        observed = []
        for t in range(min(campaign.trials, 10)):
            rng = trial_rng(campaign.seed, 10**6 + t)
            lams = _draw_lambdas(rng, n, ring)
            A0 = GrMatrix.diag([GrassmannElem.scalar(lam, m, ring) for lam in lams])
            A = A0 + random_grmatrix(rng, n, m, ring, campaign.sparsity)
            A1 = A.component(1)
            f = Poly.from_roots(ring, lams)
            checks = _lemma2_checks(A1, f.at_matrix(A), lams, f.derivative(), ring)
            observed.append({k: v for k, v in sorted(checks.items())})
        details.append(detail("exploratory_full_matrix_observations", observed))
    return _finish(campaign, ok, trials, details, reproducer, start)


# ----- alternating sums over Young subgroups -----


def _young_hypothesis_check(elems: Sequence, spec: YoungSpec) -> None:
    """Pairwise product comparison; a violation means a bad generator."""
    anti = spec.anticommuting
    k = spec.k
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            a, b = elems[i - 1], elems[j - 1]
            if i in anti and j in anti:
                if a * b != -(b * a):
                    raise HypothesisViolationError(
                        f"positions {i},{j} were declared anticommuting but are not"
                    )
            else:
                if a * b != b * a:
                    raise HypothesisViolationError(
                        f"positions {i},{j} were declared commuting but are not"
                    )


def _young_instance(
    rng: random.Random, k: int, t: int, n: int, m: int, ring: Ring
) -> Tuple[List[GrMatrix], YoungSpec]:
    """Shape with |M| = t anticommuting positions, one central per class.

    Anticommuting positions carry distinct generators times e11, central
    positions carry random nonzero scalars times e11; the hypothesis
    then holds by construction and is re-verified by the caller.
    """
    positions = list(range(1, k + 1))
    anti = sorted(rng.sample(positions, t))
    central = [p for p in positions if p not in anti]
    classes = {c: [c] for c in central}
    for p in anti:
        classes[rng.choice(central)].append(p)
    spec = YoungSpec(
        k=k,
        classes=tuple(tuple(sorted(v)) for v in classes.values()),
        anticommuting=frozenset(anti),
    )
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    elems: List[GrMatrix] = []
    g = 1
    for p in positions:
        if p in spec.anticommuting:
            elems.append(e11.scale(GrassmannElem.generator(g, m, ring)))
            g += 1
        else:
            elems.append(e11.scale_coeff(random_coeff(rng, ring)))
    return elems, spec


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
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    details: List[dict] = []
    ok = True
    reproducer = None
    trials = 0

    shapes_per_k = max(20, -(-campaign.trials // 5))
    zero_shapes = 0
    if m >= 1:
        for k in range(3, 8):
            odd_sizes = [t for t in range(1, min(k - 1, m) + 1, 2)]
            if not odd_sizes:
                continue
            for j in range(shapes_per_k):
                rng = trial_rng(campaign.seed, (k - 3) * shapes_per_k + j)
                t = rng.choice(odd_sizes)
                elems, spec = _young_instance(rng, k, t, n, m, ring)
                _young_hypothesis_check(elems, spec)
                value = young_alternating_sum(elems, spec, campaign.young_max_order)
                trials += 1
                if value.is_zero():
                    zero_shapes += 1
                else:
                    ok = False
                    details.append(detail("first_failure_shape", [k, j]))
                    reproducer = {
                        "target": campaign.target,
                        "check": "young",
                        "expect": "zero",
                        "classes": [list(c) for c in spec.classes],
                        "anticommuting": sorted(spec.anticommuting),
                        "elems": matrices_to_json(elems),
                    }
                    break
            if not ok:
                break
        details.append(detail("shapes_per_size", shapes_per_k))
        details.append(detail("odd_shapes_zero", zero_shapes))
    else:
        details.append(detail("odd_shapes_skipped_no_generators", True))

    factored = 0
    skipped = 0
    if ok:
        for k in range(1, 8):
            for sizes in _odd_compositions(k):
                if sum(s - 1 for s in sizes) > m:
                    skipped += 1
                    continue
                spec = YoungSpec.from_interval_sizes(sizes)
                e11 = GrMatrix.unit(n, m, ring, 1, 1)
                elems = []
                g = 1
                for p in range(1, k + 1):
                    if p in spec.anticommuting:
                        elems.append(e11.scale(GrassmannElem.generator(g, m, ring)))
                        g += 1
                    else:
                        elems.append(e11)
                _young_hypothesis_check(elems, spec)
                value = young_alternating_sum(elems, spec, campaign.young_max_order)
                fact = ring.one
                for s in sizes:
                    fact = ring.mul(fact, ring.factorial(s - 1))
                prod = elems[0]
                for e in elems[1:]:
                    prod = prod * e
                expected = prod.scale_coeff(fact)
                trials += 1
                if value == expected:
                    factored += 1
                else:
                    ok = False
                    details.append(detail("first_failure_sizes", list(sizes)))
                    reproducer = {
                        "target": campaign.target,
                        "check": "young",
                        "expect": "factorial",
                        "sizes": list(sizes),
                        "classes": [list(c) for c in spec.classes],
                        "anticommuting": sorted(spec.anticommuting),
                        "elems": matrices_to_json(elems),
                    }
                    break
            if not ok:
                break
        details.append(detail("interval_shapes_factored", factored))
        if skipped:
            details.append(detail("interval_shapes_skipped_for_rank", skipped))

    singles = YoungSpec.from_interval_sizes((1, 1, 1))
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    control_val = young_alternating_sum([e11, e11, e11], singles, campaign.young_max_order)
    control = control_val == e11
    details.append(detail("control_singleton_identity_product", control))
    return _finish(campaign, ok and control, trials, details, reproducer, start)


# ----- vanishing of the bridged alternating sum -----


def verify_capelli_bound(campaign: Campaign) -> Report:
    """d_k = 0 at k = n^2 + 2*floor(m/2) + 1 on random and atom inputs;
    the explicit witness one degree lower must stay nonzero."""
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    k = n * n + 2 * (m // 2) + 1
    details = [detail("x_degree", k)]
    ok = True
    reproducer = None
    trials = 0
    naive_checked = False
    for t in range(campaign.trials):
        rng = trial_rng(campaign.seed, t)
        xs = [random_grmatrix(rng, n, m, ring, campaign.sparsity) for _ in range(k)]
        ys = [random_grmatrix(rng, n, m, ring, campaign.sparsity) for _ in range(k + 1)]
        value = capelli_dp(xs, ys, max_k=campaign.max_dp_k)
        trials += 1
        if t == 0 and k <= campaign.max_naive_k:
            naive_checked = True
            if capelli_naive(xs, ys, max_k=campaign.max_naive_k) != value:
                ok = False
                details.append(detail("naive_cross_check", False))
        if not value.is_zero():
            ok = False
            details.append(detail("first_failure_trial", t))
            reproducer = {
                "target": campaign.target,
                "check": "capelli_zero",
                "xs": matrices_to_json(xs),
                "ys": matrices_to_json(ys),
            }
            break
    if naive_checked and ok:
        details.append(detail("naive_cross_check", True))

    pool = atoms(n, m, ring)
    structured_zero = 0
    if ok:
        for j in range(campaign.structured):
            rng = trial_rng(campaign.seed, campaign.trials + j)
            xs = [pool[rng.randrange(len(pool))] for _ in range(k)]
            ys = [pool[rng.randrange(len(pool))] for _ in range(k + 1)]
            value = capelli_dp(xs, ys, max_k=campaign.max_dp_k)
            trials += 1
            if value.is_zero():
                structured_zero += 1
            else:
                ok = False
                details.append(detail("first_failure_structured", j))
                reproducer = {
                    "target": campaign.target,
                    "check": "capelli_zero",
                    "xs": matrices_to_json(xs),
                    "ys": matrices_to_json(ys),
                }
                break
        details.append(detail("structured_trials_zero", structured_zero))

    spec = _field_spec(KIND_CAPELLI, n, m, ring, parts=campaign.parts)
    xs_w, ys_w = capelli_witness(spec)
    control = not capelli_dp(xs_w, ys_w, max_k=campaign.max_dp_k).is_zero()
    details.append(detail("control_witness_degree", len(xs_w)))
    details.append(detail("control_lower_degree_nonzero", control))
    if spec.ring != ring:
        details.append(detail("control_ring", spec.ring.name))
    if not control and reproducer is None:
        reproducer = {
            "target": campaign.target,
            "check": "capelli_nonzero",
            "xs": matrices_to_json(xs_w),
            "ys": matrices_to_json(ys_w),
        }
    return _finish(campaign, ok and control, trials, details, reproducer, start)


# ----- vanishing of the standard alternating sum -----


def _standard_zero_pass(
    campaign: Campaign, k: int, details: List[dict], label: str
) -> Tuple[bool, Optional[dict], int]:
    """Random + atom trials of s_k = 0; returns (ok, reproducer, trials)."""
    n, m, ring = campaign.n, campaign.m, campaign.ring
    reproducer = None
    trials = 0
    naive_note = None
    for t in range(campaign.trials):
        rng = trial_rng(campaign.seed, t)
        mats = [random_grmatrix(rng, n, m, ring, campaign.sparsity) for _ in range(k)]
        value = standard_dp(mats, max_k=campaign.max_dp_k)
        trials += 1
        if t == 0 and k <= campaign.max_naive_k:
            naive_note = standard_naive(mats, max_k=campaign.max_naive_k) == value
        if not value.is_zero():
            details.append(detail(f"{label}_first_failure_trial", t))
            reproducer = {
                "target": campaign.target,
                "check": "standard_zero",
                "mats": matrices_to_json(mats),
            }
            return False, reproducer, trials
    pool = atoms(n, m, ring)
    zero = 0
    for j in range(campaign.structured):
        rng = trial_rng(campaign.seed, campaign.trials + j)
        mats = [pool[rng.randrange(len(pool))] for _ in range(k)]
        value = standard_dp(mats, max_k=campaign.max_dp_k)
        trials += 1
        if value.is_zero():
            zero += 1
        else:
            details.append(detail(f"{label}_first_failure_structured", j))
            reproducer = {
                "target": campaign.target,
                "check": "standard_zero",
                "mats": matrices_to_json(mats),
            }
            return False, reproducer, trials
    details.append(detail(f"{label}_trials_zero", trials))
    if naive_note is not None:
        details.append(detail(f"{label}_naive_cross_check", naive_note))
        if not naive_note:
            return False, None, trials
    return True, None, trials


def verify_standard_bounds(campaign: Campaign) -> Report:
    """StandardCorollary, StandardProduct, and Filtration2 campaigns.

    Corollary: s_k = 0 at both proved degrees.  Product: the product of
    s_2n blocks vanishes at total degree 2n(floor(m/2)+1).  Filtration2:
    each s_2n block lands in the span of degree >= 2 terms.  All three
    share the staircase mutation control one degree lower.
    """
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    degs = degrees_for(n, m)
    details: List[dict] = []
    ok = True
    reproducer = None
    trials = 0

    if campaign.target == STANDARD_COROLLARY:
        k1 = degs["standard_degree"]
        k2 = degs["standard_product_degree"]
        details.append(detail("degree", k1))
        details.append(detail("comparison_degree", k2))
        ok, reproducer, t1 = _standard_zero_pass(campaign, k1, details, "corollary")
        trials += t1
        if ok and k2 != k1:
            ok, reproducer, t2 = _standard_zero_pass(campaign, k2, details, "product_degree")
            trials += t2
    elif campaign.target == STANDARD_PRODUCT:
        blocks = m // 2 + 1
        k = 2 * n * blocks
        details.append(detail("degree", k))
        details.append(detail("blocks", blocks))
        for t in range(campaign.trials):
            rng = trial_rng(campaign.seed, t)
            mats = [
                random_grmatrix(rng, n, m, ring, campaign.sparsity) for _ in range(k)
            ]
            value = standard_product_eval(mats, max_k=campaign.max_dp_k)
            trials += 1
            if not value.is_zero():
                ok = False
                details.append(detail("first_failure_trial", t))
                reproducer = {
                    "target": campaign.target,
                    "check": "product_zero",
                    "mats": matrices_to_json(mats),
                }
                break
        if ok:
            details.append(detail("trials_zero", trials))
    else:
        k = 2 * n
        details.append(detail("block_degree", k))
        in_filtration = 0
        for t in range(campaign.trials):
            rng = trial_rng(campaign.seed, t)
            mats = [
                random_grmatrix(rng, n, m, ring, campaign.sparsity) for _ in range(k)
            ]
            value = standard_dp(mats, max_k=campaign.max_dp_k)
            trials += 1
            if value.in_filtration(2):
                in_filtration += 1
            else:
                ok = False
                details.append(detail("first_failure_trial", t))
                reproducer = {
                    "target": campaign.target,
                    "check": "filtration2",
                    "mats": matrices_to_json(mats),
                }
                break
        details.append(detail("blocks_in_filtration_2", in_filtration))

    stairs = staircase_units(n, m, ring)
    low = standard_dp(stairs, max_k=campaign.max_dp_k)
    control = not low.is_zero()
    if campaign.target == FILTRATION2:
        control = control and not low.in_filtration(2)
        details.append(detail("control_staircase_outside_filtration", control))
    else:
        details.append(detail("control_witness_degree", 2 * n - 1))
        details.append(detail("control_lower_degree_nonzero", control))
    if not control and reproducer is None:
        reproducer = {
            "target": campaign.target,
            "check": "standard_nonzero",
            "mats": matrices_to_json(stairs),
        }
    return _finish(campaign, ok and control, trials, details, reproducer, start)


def verify_amitsur_levitzki(campaign: Campaign) -> Report:
    """s_2n = 0 on degree-0 matrices; the staircase at 2n-1 is nonzero."""
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    k = 2 * n
    details = [detail("degree", k)]
    ok = True
    reproducer = None
    trials = 0
    naive_note = None
    for t in range(campaign.trials):
        rng = trial_rng(campaign.seed, t)
        mats = [
            GrMatrix(
                [
                    [
                        GrassmannElem.scalar(random_coeff(rng, ring), m, ring)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            for _ in range(k)
        ]
        value = standard_dp(mats, max_k=campaign.max_dp_k)
        trials += 1
        if t == 0 and k <= campaign.max_naive_k:
            naive_note = standard_naive(mats, max_k=campaign.max_naive_k) == value
        if not value.is_zero():
            ok = False
            details.append(detail("first_failure_trial", t))
            reproducer = {
                "target": campaign.target,
                "check": "standard_zero",
                "mats": matrices_to_json(mats),
            }
            break
    if naive_note is not None:
        details.append(detail("naive_cross_check", naive_note))
        ok = ok and naive_note
    stairs = staircase_units(n, m, ring)
    low = standard_dp(stairs, max_k=campaign.max_dp_k)
    control = not low.is_zero()
    details.append(detail("control_staircase_degree", 2 * n - 1))
    details.append(detail("control_lower_degree_nonzero", control))
    if not control and reproducer is None:
        reproducer = {
            "target": campaign.target,
            "check": "standard_nonzero",
            "mats": matrices_to_json(stairs),
        }
    return _finish(campaign, ok and control, trials, details, reproducer, start)


# ----- the open question -----


def search_open_question(campaign: Campaign) -> Report:
    """Search s_k = 0, k = 2(n + floor(m/2)), over atom tuples.

    Atom tuples with a repeated generator across masks evaluate to zero
    term by term, so the pruned slice cannot hide a counterexample;
    pruning only skips their evaluation and is tallied separately.  The
    verdict is never PASS: either a counterexample with reproducer, or
    the exact coverage reached within budget.
    """
    start = time.perf_counter()
    n, m, ring = campaign.n, campaign.m, campaign.ring
    k = 2 * (n + m // 2)
    budget = campaign.budget if campaign.budget is not None else DEFAULT_BUDGET
    if budget <= 0:
        raise ValueError("search budget must be positive")
    pool = atoms(n, m, ring)
    total = len(pool)
    details = [
        detail("degree", k),
        detail("atoms", total),
        detail("prune", campaign.prune),
    ]
    evaluated = 0
    pruned = 0
    seen = 0
    exhausted = True
    found = None
    for combo in combinations(range(total), k):
        if seen >= budget:
            exhausted = False
            break
        seen += 1
        mats = [pool[i] for i in combo]
        if campaign.prune:
            union = 0
            degsum = 0
            for A in mats:
                for row in A.rows:
                    for e in row:
                        for mask in e.terms:
                            union |= mask
                            degsum += mask.bit_count()
            if degsum > m or union.bit_count() != degsum:
                pruned += 1
                continue
        evaluated += 1
        value = standard_dp(mats, max_k=campaign.max_dp_k)
        if not value.is_zero():
            found = {
                "target": campaign.target,
                "check": "standard_zero",
                "mats": matrices_to_json(mats),
            }
            details.append(detail("counterexample_value", value.compact_str()))
            break
    details.append(detail("tuples_considered", seen))
    details.append(detail("tuples_evaluated", evaluated))
    details.append(detail("tuples_pruned", pruned))
    details.append(detail("exhausted", exhausted and found is None))

    sampled = 0
    if found is None and campaign.random_samples:
        for j in range(campaign.random_samples):
            rng = trial_rng(campaign.seed, j)
            combo = sorted(rng.sample(range(total), k))
            mats = [pool[i] for i in combo]
            sampled += 1
            value = standard_dp(mats, max_k=campaign.max_dp_k)
            if not value.is_zero():
                found = {
                    "target": campaign.target,
                    "check": "standard_zero",
                    "mats": matrices_to_json(mats),
                }
                break
        details.append(detail("random_samples", sampled))

    return _finish(
        campaign,
        found is None,
        evaluated + sampled,
        details,
        found,
        start,
        search=True,
    )


# ----- dispatch -----


def run_campaign(campaign: Campaign) -> Report:
    """Run any target; sharpness targets delegate to the witness checks."""
    target = campaign.target
    if target == THEOREM1:
        return verify_theorem1(campaign)
    if target == LEMMA2:
        return verify_lemma2(campaign)
    if target == YOUNG_LEMMA:
        return verify_young_lemma(campaign)
    if target == CAPELLI_BOUND:
        return verify_capelli_bound(campaign)
    if target in (STANDARD_COROLLARY, STANDARD_PRODUCT, FILTRATION2):
        return verify_standard_bounds(campaign)
    if target == AMITSUR_LEVITZKI:
        return verify_amitsur_levitzki(campaign)
    if target == OPEN_QUESTION:
        return search_open_question(campaign)
    if target == CH_SHARPNESS:
        spec = WitnessSpec(
            kind=KIND_CH, n=campaign.n, m=campaign.m, ring=campaign.ring,
            lambdas=campaign.lambdas,
        )
        return ch_sharpness_verify(spec)
    if target == CAPELLI_SHARPNESS:
        spec = WitnessSpec(
            kind=KIND_CAPELLI, n=campaign.n, m=campaign.m, ring=campaign.ring,
            parts=campaign.parts,
        )
        return capelli_sharpness_verify(spec, max_dp_k=campaign.max_dp_k)
    return standard_sharpness_verify(
        campaign.n, campaign.m, campaign.ring, max_dp_k=campaign.max_dp_k
    )


# ----- reproducer replay -----


def replay_reproducer(data: dict, max_dp_k: int = DEFAULT_STANDARD_DP_K) -> Report:
    """Re-run the exact check a reproducer came from.

    The DP checks honour the same degree guard as a campaign: a
    reproducer with more than max_dp_k matrices raises
    DegreeTooLargeError instead of starting the DP.

    PASS means the stored inputs satisfy the identity after all; FAIL
    (or COUNTEREXAMPLE_FOUND for the open question) confirms the
    violation still reproduces.
    """
    start = time.perf_counter()
    target = data["target"]
    check = data["check"]
    campaign_echo = {"target": target, "replay": True, "check": check}
    details: List[dict] = []

    if check in ("power_zero", "power_nonzero"):
        A = GrMatrix.from_json(data["matrix"])
        e = int(data["exponent"])
        if "lambdas" in data:
            lams = [A.ring.parse(s) for s in data["lambdas"]]
            f = Poly.from_roots(A.ring, lams)
        else:
            f = charpoly(A.component(0))
        value = f.at_matrix(A) ** e
        details.append(detail("exponent", e))
        details.append(detail("power_is_zero", value.is_zero()))
        holds = value.is_zero() if check == "power_zero" else not value.is_zero()
    elif check == "lemma2":
        A = GrMatrix.from_json(data["matrix"])
        lams = tuple(A.ring.parse(s) for s in data["lambdas"])
        f = Poly.from_roots(A.ring, lams)
        checks = _lemma2_checks(
            A.component(1), f.at_matrix(A), lams, f.derivative(), A.ring
        )
        for name in sorted(checks):
            details.append(detail(name, checks[name]))
        holds = all(checks.values())
    elif check == "young":
        elems = matrices_from_json(data["elems"])
        spec = YoungSpec(
            k=len(elems),
            classes=tuple(tuple(c) for c in data["classes"]),
            anticommuting=frozenset(data["anticommuting"]),
        )
        _young_hypothesis_check(elems, spec)
        value = young_alternating_sum(elems, spec, 10**6)
        if data["expect"] == "zero":
            holds = value.is_zero()
            details.append(detail("sum_is_zero", holds))
        else:
            ring = elems[0].ring
            fact = ring.one
            for c in spec.classes:
                fact = ring.mul(fact, ring.factorial(len(c) - 1))
            prod = elems[0]
            for e in elems[1:]:
                prod = prod * e
            holds = value == prod.scale_coeff(fact)
            details.append(detail("factorial_form_matches", holds))
    elif check in ("capelli_zero", "capelli_nonzero"):
        xs = matrices_from_json(data["xs"])
        ys = matrices_from_json(data["ys"])
        value = capelli_dp(xs, ys, max_k=max_dp_k)
        details.append(detail("value_is_zero", value.is_zero()))
        holds = value.is_zero() if check == "capelli_zero" else not value.is_zero()
    elif check in ("standard_zero", "standard_nonzero"):
        mats = matrices_from_json(data["mats"])
        value = standard_dp(mats, max_k=max_dp_k)
        details.append(detail("value_is_zero", value.is_zero()))
        if not value.is_zero():
            details.append(detail("value", value.compact_str()))
        holds = value.is_zero() if check == "standard_zero" else not value.is_zero()
    elif check == "product_zero":
        mats = matrices_from_json(data["mats"])
        value = standard_product_eval(mats, max_k=max_dp_k)
        details.append(detail("value_is_zero", value.is_zero()))
        holds = value.is_zero()
    elif check == "filtration2":
        mats = matrices_from_json(data["mats"])
        value = standard_dp(mats, max_k=max_dp_k)
        holds = value.in_filtration(2)
        details.append(detail("in_filtration_2", holds))
    else:
        raise ValueError(f"unknown reproducer check {check!r}")

    if holds:
        verdict = PASS
    elif target == OPEN_QUESTION:
        verdict = COUNTEREXAMPLE_FOUND
    else:
        verdict = FAIL
    return Report(
        campaign=campaign_echo,
        verdict=verdict,
        trials=1,
        details=details,
        reproducer=data if not holds else None,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )
