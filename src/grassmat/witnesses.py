"""Sharpness witnesses: explicit inputs showing each degree bound tight.

Three families, one per identity:

* ch: the diagonal matrix diag(lambda_i + v) with v the sum of disjoint
  generator pairs (plus the last generator when the rank is odd).  Its
  degree-0 characteristic polynomial f has f(A)^ceil(m/2) nonzero while
  f(A)^(ceil(m/2)+1) = 0, and the separating polynomials
  g_i = (x - lambda_i)^c prod_{j != i} (x - lambda_j)^(c+1) stay nonzero
  at A, pinning the minimal annihilating power.

* capelli: the row-major matrix units, each A_r followed by m_r copies
  multiplied by fresh generators, bridged by matrix units B_i chosen so
  the only surviving permutations shuffle within blocks.  The value
  factors exactly as the bridged chain times prod m_r!.

* standard: the staircase units e12, e23, ..., e(n-1,n), enn,
  e(n,n-1), ..., e21 followed by v_i e11.  The (1,1) entry of the
  alternating sum is exactly (2*floor(m/2))! v_1...v_w; the full matrix
  also picks up harmless diagonal terms in rows 2..n whenever n >= 2,
  which the report records.

Constructions demand a field whose characteristic clears the factorials
involved; violations raise BadCharacteristicError up front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    BadCharacteristicError,
    BadPartitionError,
    DuplicateLambdasError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix
from .grassmann import GrassmannElem, _check_rank
from .identities import (
    DEFAULT_CAPELLI_DP_K,
    DEFAULT_NAIVE_K,
    DEFAULT_STANDARD_DP_K,
    capelli_dp,
    capelli_naive,
    standard_dp,
    standard_naive,
)
from .poly import Poly, eval_product_form
from .report import FAIL, PASS, Report, detail
from .ring import Ring

KIND_CH = "ch"
KIND_CAPELLI = "capelli"
KIND_STANDARD = "standard"
KINDS = (KIND_CH, KIND_CAPELLI, KIND_STANDARD)


def ceil_half(m: int) -> int:
    return (m + 1) // 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _report(campaign: dict, ok: bool, details: List[dict], start: float) -> Report:
    """One-trial sharpness report; a witness has no reproducer."""
    return Report(
        campaign=campaign,
        verdict=PASS if ok else FAIL,
        trials=1,
        details=details,
        reproducer=None,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )


@dataclass(frozen=True)
class WitnessSpec:
    """Parameters of one witness instance; validates on construction."""

    kind: str
    n: int
    m: int
    ring: Ring
    lambdas: Optional[Tuple] = None
    parts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"matrix dimension must be a positive integer, got {self.n}")
        _check_rank(self.m)
        if not self.ring.is_field():
            raise BadCharacteristicError(
                f"witness constructions need a field, got {self.ring.name}"
            )
        p = self.ring.characteristic
        if self.kind == KIND_CH:
            if self.parts is not None:
                raise ValueError("parts is a capelli-only parameter")
            if p and p <= ceil_half(self.m):
                raise BadCharacteristicError(
                    f"need characteristic 0 or p > {ceil_half(self.m)}, got {p}"
                )
            self.resolved_lambdas()
        elif self.kind == KIND_CAPELLI:
            if self.lambdas is not None:
                raise ValueError("lambdas is a ch-only parameter")
            bound = 2 * _ceil_div(self.m // 2, self.n * self.n)
            if p and p <= bound:
                raise BadCharacteristicError(
                    f"need characteristic 0 or p > {bound}, got {p}"
                )
            self.resolved_parts()
        else:
            if self.lambdas is not None or self.parts is not None:
                raise ValueError("standard witness takes no lambdas or parts")
            if p and p <= 2 * (self.m // 2):
                raise BadCharacteristicError(
                    f"need characteristic 0 or p > {2 * (self.m // 2)}, got {p}"
                )

    def resolved_lambdas(self) -> Tuple:
        """Eigenvalue list: as given, or the embedded 0..n-1 default."""
        ring = self.ring
        if self.lambdas is not None:
            if len(self.lambdas) != self.n:
                raise LengthMismatchError(
                    f"need {self.n} eigenvalues, got {len(self.lambdas)}"
                )
            vals = tuple(ring.coerce(x) for x in self.lambdas)
        else:
            vals = tuple(ring.embed(i) for i in range(self.n))
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i] == vals[j]:
                    raise DuplicateLambdasError(
                        f"eigenvalues collide at positions {i} and {j}"
                    )
        return vals

    def resolved_parts(self) -> Tuple[int, ...]:
        """Generator multiplicities per matrix unit, default or as given.

        The default packs 2*floor(m/2) into the first unit when the
        characteristic allows, otherwise greedily into the largest even
        chunks below p.  A zero part is legal and inserts nothing.
        """
        nn = self.n * self.n
        w = 2 * (self.m // 2)
        p = self.ring.characteristic
        if self.parts is not None:
            parts = tuple(int(x) for x in self.parts)
            if len(parts) != nn:
                raise BadPartitionError(f"need {nn} parts, got {len(parts)}")
            if any(x < 0 or x % 2 for x in parts):
                raise BadPartitionError(f"parts must be even and nonnegative: {parts}")
            if sum(parts) != w:
                raise BadPartitionError(f"parts must sum to {w}: {parts}")
            if p and any(x >= p for x in parts):
                raise BadCharacteristicError(
                    f"every part must stay below the characteristic {p}: {parts}"
                )
            return parts
        cap = w if p == 0 else p - 1 - ((p - 1) % 2)
        out = []
        remaining = w
        for _ in range(nn):
            take = min(cap, remaining)
            out.append(take)
            remaining -= take
        if remaining:
            raise BadPartitionError(
                f"cannot split {w} generators into {nn} even parts below {p}"
            )
        return tuple(out)

    def to_dict(self) -> dict:
        ring = self.ring
        out = {"kind": self.kind, "n": self.n, "m": self.m, "ring": ring.name}
        if self.kind == KIND_CH:
            out["lambdas"] = [ring.format(x) for x in self.resolved_lambdas()]
        if self.kind == KIND_CAPELLI:
            out["parts"] = list(self.resolved_parts())
        return out


# ----- common nilpotent part -----


def ch_nilpotent(m: int, ring: Ring) -> GrassmannElem:
    """v1v2 + v3v4 + ... (+ v_m when m is odd); squares to pair shuffles.

    Its powers satisfy v^ceil(m/2) = ceil(m/2)! v_1...v_m, the top
    monomial, and one step further vanishes.
    """
    _check_rank(m)
    terms = []
    for i in range(m // 2):
        terms.append(((2 * i + 1, 2 * i + 2), ring.one))
    if m % 2:
        terms.append(((m,), ring.one))
    return GrassmannElem.from_terms(m, ring, terms)


# ----- ch family -----


def ch_witness(spec: WitnessSpec) -> GrMatrix:
    """diag(lambda_i + v) with entries in spec.ring."""
    if spec.kind != KIND_CH:
        raise ValueError(f"expected a ch spec, got kind {spec.kind!r}")
    v = ch_nilpotent(spec.m, spec.ring)
    lams = spec.resolved_lambdas()
    entries = [GrassmannElem.scalar(lam, spec.m, spec.ring) + v for lam in lams]
    return GrMatrix.diag(entries)


def ch_sharpness_verify(spec: WitnessSpec) -> Report:
    """Check f(A)^(c+1) = 0 and that no smaller power of f annihilates.

    c = ceil(m/2).  Minimality is certified by the separating
    polynomials: g_i(A) != 0 for every i, with the (i,i) entry equal to
    v^c f'(lambda_i)^(c+1) on the nose.
    """
    start = time.perf_counter()
    ring = spec.ring
    n, m = spec.n, spec.m
    c = ceil_half(m)
    lams = spec.resolved_lambdas()
    f = Poly.from_roots(ring, lams)
    fprime = f.derivative()
    A = ch_witness(spec)
    B = f.at_matrix(A)
    Bc = B**c
    Bc1 = Bc * B

    v = ch_nilpotent(m, ring)
    vc = v**c
    top = GrassmannElem.basis((1 << m) - 1, m, ring).scale(ring.factorial(c))

    details = [
        detail("exponent", c + 1),
        detail("charpoly", str(f)),
        detail("nilpotent_part", str(v)),
        detail("power_zero", Bc1.is_zero()),
        detail("previous_power_nonzero", not Bc.is_zero()),
        detail("nilpotent_power_is_top_monomial", vc == top),
    ]
    ok = Bc1.is_zero() and not Bc.is_zero() and vc == top

    for i in range(n):
        factors = [(lams[i], c)] + [
            (lams[j], c + 1) for j in range(n) if j != i
        ]
        gi = eval_product_form(A, factors)
        expected = vc.scale(ring.power(fprime(lams[i]), c + 1))
        entry_ok = gi.entry(i + 1, i + 1) == expected
        sep_ok = (not gi.is_zero()) and entry_ok
        ok = ok and sep_ok
        details.append(
            detail(
                f"separating_poly_{i + 1}",
                {
                    "nonzero": not gi.is_zero(),
                    "diag_entry": str(gi.entry(i + 1, i + 1)),
                    "expected": str(expected),
                    "matches": entry_ok,
                },
            )
        )

    return _report({"target": "CHSharpness", **spec.to_dict()}, ok, details, start)


# ----- capelli family -----


def capelli_witness(spec: WitnessSpec) -> Tuple[List[GrMatrix], List[GrMatrix]]:
    """(C, B): x-arguments and the bridging y-arguments.

    C walks the matrix units row-major; right after unit number r come
    parts[r] copies multiplied by fresh generators, consuming the
    generators v_1..v_{2*floor(m/2)} in order.  B_i is the unit sending
    the column of C_i to the row of C_{i+1}; B_0 starts at row 1 and B_k
    returns to column 1, so the bridged chain is supported at (1,1).
    """
    if spec.kind != KIND_CAPELLI:
        raise ValueError(f"expected a capelli spec, got kind {spec.kind!r}")
    n, m, ring = spec.n, spec.m, spec.ring
    parts = spec.resolved_parts()
    xs: List[GrMatrix] = []
    rc: List[Tuple[int, int]] = []
    g = 1
    idx = 0
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            unit = GrMatrix.unit(n, m, ring, r, s)
            xs.append(unit)
            rc.append((r, s))
            for _ in range(parts[idx]):
                xs.append(unit.scale(GrassmannElem.generator(g, m, ring)))
                rc.append((r, s))
                g += 1
            idx += 1
    k = len(xs)
    ys = [GrMatrix.unit(n, m, ring, 1, rc[0][0])]
    for i in range(k - 1):
        ys.append(GrMatrix.unit(n, m, ring, rc[i][1], rc[i + 1][0]))
    ys.append(GrMatrix.unit(n, m, ring, rc[-1][1], 1))
    return xs, ys


def capelli_sharpness_verify(
    spec: WitnessSpec, max_dp_k: int = DEFAULT_CAPELLI_DP_K
) -> Report:
    """Check d_k(C; B) = (bridged chain) * prod parts_r!, nonzero."""
    start = time.perf_counter()
    ring = spec.ring
    parts = spec.resolved_parts()
    xs, ys = capelli_witness(spec)
    k = len(xs)
    value = capelli_dp(xs, ys, max_k=max_dp_k)
    chain = ys[0]
    for i in range(k):
        chain = chain * xs[i] * ys[i + 1]
    fact = ring.one
    for part in parts:
        fact = ring.mul(fact, ring.factorial(part))
    expected = chain.scale_coeff(fact)

    matches = value == expected
    nonzero = not value.is_zero()
    details = [
        detail("x_degree", k),
        detail("parts", list(parts)),
        detail("zero_parts_used", any(p == 0 for p in parts)),
        detail("factorial_product", ring.format(fact)),
        detail("value", value.compact_str()),
        detail("matches_factored_form", matches),
        detail("nonzero", nonzero),
    ]
    ok = matches and nonzero
    if k <= DEFAULT_NAIVE_K:
        details.append(detail("naive_cross_check", capelli_naive(xs, ys) == value))
        ok = ok and details[-1]["value"]

    return _report({"target": "CapelliSharpness", **spec.to_dict()}, ok, details, start)


# ----- standard family -----


def staircase_units(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """e12, e23, ..., e(n-1,n), enn, e(n,n-1), ..., e21 (just e11 at n=1)."""
    out = [GrMatrix.unit(n, m, ring, i, i + 1) for i in range(1, n)]
    out.append(GrMatrix.unit(n, m, ring, n, n))
    out.extend(GrMatrix.unit(n, m, ring, i + 1, i) for i in range(n - 1, 0, -1))
    return out


def standard_witness(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """Staircase units followed by v_i e11 for i = 1..2*floor(m/2)."""
    WitnessSpec(kind=KIND_STANDARD, n=n, m=m, ring=ring)
    mats = staircase_units(n, m, ring)
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    for i in range(1, 2 * (m // 2) + 1):
        mats.append(e11.scale(GrassmannElem.generator(i, m, ring)))
    return mats


def standard_sharpness_verify(
    n: int, m: int, ring: Ring, max_dp_k: int = DEFAULT_STANDARD_DP_K
) -> Report:
    """Evaluate s_k on the witness, k = 2(n + floor(m/2)) - 1.

    The exact closed form lives in the (1,1) entry:
    (2*floor(m/2))! v_1...v_w, reducing to 1 when m <= 1.  For n >= 2
    the full matrix carries additional diagonal terms in rows 2..n (for
    example s3(e12, e22, e21) = e11 + 2 e22), so the verdict asserts the
    (1,1) entry and nonvanishing, and the report records whether the
    whole matrix happens to match the closed form times e11.
    """
    start = time.perf_counter()
    mats = standard_witness(n, m, ring)
    k = len(mats)
    value = standard_dp(mats, max_k=max_dp_k)

    w = 2 * (m // 2)
    closed11 = GrassmannElem.basis((1 << w) - 1, m, ring).scale(ring.factorial(w))
    expected_full = GrMatrix.unit(n, m, ring, 1, 1).scale(closed11)

    entry_ok = value.entry(1, 1) == closed11
    nonzero = not value.is_zero()
    full_match = value == expected_full
    details = [
        detail("degree", k),
        detail("closed_form", expected_full.compact_str()),
        detail("entry_11", str(value.entry(1, 1))),
        detail("entry_11_matches_closed_form", entry_ok),
        detail("nonzero", nonzero),
        detail("full_matrix_matches_closed_form", full_match),
        detail("value", value.compact_str()),
    ]
    if not full_match:
        details.append(
            detail(
                "note",
                "value carries extra diagonal terms beyond the (1,1) closed form",
            )
        )
    ok = entry_ok and nonzero
    if k <= DEFAULT_NAIVE_K:
        details.append(detail("naive_cross_check", standard_naive(mats) == value))
        ok = ok and details[-1]["value"]

    campaign = {
        "target": "StandardSharpness",
        "kind": KIND_STANDARD,
        "n": n,
        "m": m,
        "ring": ring.name,
    }
    return _report(campaign, ok, details, start)
