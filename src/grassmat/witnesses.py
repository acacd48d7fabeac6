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

One builder per family takes a campaign's own values and returns what
the family's judge reads: ch_inputs(n, m, ring, lambdas=None) gives the
matrix and its eigenvalues, capelli_inputs(n, m, ring, parts=None) the
x-arguments, the bridging y-arguments and the parts, and
standard_witness(n, m, ring) the staircase matrices.  ch_lambdas and
capelli_parts resolve the optional parameter, default or as given, and
refuse a bad one.  Every builder first passes one gate: n >= 1, a valid
rank, and a field whose characteristic clears the factorials involved,
else BadCharacteristicError before any matrix is built.

The sharpness targets run like every other target, through the check
registry of the harness: it evaluates each witness and judges the value
with the *_sharp_judge functions here, which return the verdict and name
the details of the report in order.  A FAIL therefore carries a
reproducer that --replay re-runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .errors import (
    BadCharacteristicError,
    BadPartitionError,
    DegreeTooLargeError,
    DuplicateLambdasError,
    LengthMismatchError,
)
from .gmatrix import GrMatrix
from .grassmann import GrassmannElem, _check_rank
from .ring import Ring

# Rank cap of the checks on f(A): the nilpotent part of a rank-m input
# raised to ceil(m/2) has up to C(m/2, m/4) terms per entry, so their
# work grows about 4x per four generators.
MAX_CH_RANK = 24


def ceil_half(m: int) -> int:
    return (m + 1) // 2


def ch_exponent(m: int) -> int:
    """c = ceil(m/2) for the checks on f(A) at rank m, which raise
    DegreeTooLargeError above MAX_CH_RANK before any power is taken."""
    if m > MAX_CH_RANK:
        raise DegreeTooLargeError(f"checks on f(A) capped at rank m <= {MAX_CH_RANK}, got {m}")
    return ceil_half(m)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _gate(n: int, m: int, ring: Ring, bound: Callable[[int, int], int]) -> None:
    """The checks every witness shares: n >= 1, the rank, a field, and a
    characteristic of 0 or above bound(n, m)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix dimension must be a positive integer, got {n}")
    _check_rank(m)
    if not ring.is_field():
        raise BadCharacteristicError(f"witness constructions need a field, got {ring.name}")
    p = ring.characteristic
    if p and p <= (b := bound(n, m)):
        raise BadCharacteristicError(f"need characteristic 0 or p > {b}, got {p}")


def check_distinct(lambdas: Tuple) -> None:
    """DuplicateLambdasError unless the eigenvalues are pairwise distinct."""
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            if lambdas[i] == lambdas[j]:
                raise DuplicateLambdasError(f"eigenvalues collide at positions {i} and {j}")


def ch_lambdas(n: int, m: int, ring: Ring, lambdas: Optional[Tuple] = None) -> Tuple:
    """The eigenvalues of the ch witness: as given, or the embedded
    0..n-1 default; needs p > ceil(m/2)."""
    _gate(n, m, ring, lambda n, m: ceil_half(m))
    if lambdas is not None:
        if len(lambdas) != n:
            raise LengthMismatchError(f"need {n} eigenvalues, got {len(lambdas)}")
        vals = tuple(ring.coerce(x) for x in lambdas)
    else:
        vals = tuple(ring.embed(i) for i in range(n))
    check_distinct(vals)
    return vals


def capelli_parts(
    n: int, m: int, ring: Ring, parts: Optional[Tuple[int, ...]] = None
) -> Tuple[int, ...]:
    """Generator multiplicities per matrix unit, default or as given;
    needs p > 2*ceil(floor(m/2) / n^2).

    The default packs 2*floor(m/2) into the first unit when the
    characteristic allows, otherwise greedily into the largest even
    chunks below p.  A zero part is legal and inserts nothing.
    """
    _gate(n, m, ring, lambda n, m: 2 * _ceil_div(m // 2, n * n))
    nn = n * n
    w = 2 * (m // 2)
    p = ring.characteristic
    if parts is not None:
        parts = tuple(int(x) for x in parts)
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
        raise BadPartitionError(f"cannot split {w} generators into {nn} even parts below {p}")
    return tuple(out)


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


def ch_inputs(n: int, m: int, ring: Ring, lambdas: Optional[Tuple] = None) -> dict:
    """The inputs ch_sharp_judge reads: the witness diag(lambda_i + v)
    over ring and its eigenvalues, resolved once by ch_lambdas."""
    lams = ch_lambdas(n, m, ring, lambdas)
    v = ch_nilpotent(m, ring)
    matrix = GrMatrix.diag([GrassmannElem.scalar(lam, m, ring) + v for lam in lams])
    return {"matrix": matrix, "lambdas": lams}


def ch_sharp_judge(value, inputs: dict) -> Tuple[bool, dict]:
    """Whether f(A)^(c+1) = 0 and no smaller power of f annihilates.

    c = ceil(m/2), and value is (f, f(A)^c, f(A)^(c+1), [g_i(A)]).
    Minimality is certified by the separating polynomials: g_i(A) != 0
    for every i, with the (i,i) entry equal to v^c f'(lambda_i)^(c+1)
    on the nose, v the nilpotent part of the witness.
    """
    f, Bc, Bc1, gs = value
    A, lams = inputs["matrix"], inputs["lambdas"]
    ring, m = A.ring, A.m
    c = ceil_half(m)
    fprime = f.derivative()
    v = ch_nilpotent(m, ring)
    vc = v**c
    top = GrassmannElem.basis((1 << m) - 1, m, ring).scale(ring.factorial(c))
    ok = Bc1.is_zero() and not Bc.is_zero() and vc == top
    named = {
        "exponent": c + 1,
        "charpoly": str(f),
        "nilpotent_part": str(v),
        "power_zero": Bc1.is_zero(),
        "previous_power_nonzero": not Bc.is_zero(),
        "nilpotent_power_is_top_monomial": vc == top,
    }
    for i, gi in enumerate(gs):
        expected = vc.scale(ring.power(fprime(lams[i]), c + 1))
        entry_ok = gi.entry(i + 1, i + 1) == expected
        ok = ok and not gi.is_zero() and entry_ok
        named[f"separating_poly_{i + 1}"] = {
            "nonzero": not gi.is_zero(),
            "diag_entry": str(gi.entry(i + 1, i + 1)),
            "expected": str(expected),
            "matches": entry_ok,
        }
    return ok, named


# ----- capelli family -----


def capelli_inputs(n: int, m: int, ring: Ring, parts: Optional[Tuple[int, ...]] = None) -> dict:
    """The inputs capelli_sharp_judge reads: x-arguments xs, bridging
    y-arguments ys, and the parts, resolved once by capelli_parts.

    xs walks the matrix units row-major; right after unit number r come
    parts[r] copies multiplied by fresh generators, consuming the
    generators v_1..v_{2*floor(m/2)} in order.  ys[i] is the unit sending
    the column of xs[i] to the row of xs[i+1]; ys[0] starts at row 1 and
    ys[k] returns to column 1, so the bridged chain is supported at (1,1).
    """
    parts = capelli_parts(n, m, ring, parts)
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
    return {"xs": xs, "ys": ys, "parts": list(parts)}


def capelli_sharp_judge(value: GrMatrix, inputs: dict) -> Tuple[bool, dict]:
    """Whether d_k(C; B) = (bridged chain) * prod parts_r!, nonzero."""
    xs, ys, parts = inputs["xs"], inputs["ys"], inputs["parts"]
    ring = xs[0].ring
    chain = ys[0]
    for x, y in zip(xs, ys[1:]):
        chain = chain * x * y
    fact = ring.one
    for part in parts:
        fact = ring.mul(fact, ring.factorial(part))
    matches = value == chain.scale_coeff(fact)
    nonzero = not value.is_zero()
    return matches and nonzero, {
        "x_degree": len(xs),
        "parts": list(parts),
        "zero_parts_used": any(p == 0 for p in parts),
        "factorial_product": ring.format(fact),
        "value": value.compact_str(),
        "matches_factored_form": matches,
        "nonzero": nonzero,
    }


# ----- standard family -----


def staircase_units(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """e12, e23, ..., e(n-1,n), enn, e(n,n-1), ..., e21 (just e11 at n=1)."""
    out = [GrMatrix.unit(n, m, ring, i, i + 1) for i in range(1, n)]
    out.append(GrMatrix.unit(n, m, ring, n, n))
    out.extend(GrMatrix.unit(n, m, ring, i + 1, i) for i in range(n - 1, 0, -1))
    return out


def standard_witness(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """Staircase units followed by v_i e11 for i = 1..2*floor(m/2);
    needs p > 2*floor(m/2)."""
    _gate(n, m, ring, lambda n, m: 2 * (m // 2))
    mats = staircase_units(n, m, ring)
    e11 = GrMatrix.unit(n, m, ring, 1, 1)
    for i in range(1, 2 * (m // 2) + 1):
        mats.append(e11.scale(GrassmannElem.generator(i, m, ring)))
    return mats


def standard_sharp_judge(value: GrMatrix, inputs: dict) -> Tuple[bool, dict]:
    """Whether s_k on the witness, k = 2(n + floor(m/2)) - 1, is nonzero
    with the closed-form (1,1) entry.

    The exact closed form lives in the (1,1) entry:
    (2*floor(m/2))! v_1...v_w, reducing to 1 when m <= 1.  For n >= 2
    the full matrix carries additional diagonal terms in rows 2..n (for
    example s3(e12, e22, e21) = e11 + 2 e22), so the verdict asserts the
    (1,1) entry and nonvanishing, and the details record whether the
    whole matrix happens to match the closed form times e11.
    """
    first = inputs["mats"][0]
    n, m, ring = first.n, first.m, first.ring
    w = 2 * (m // 2)
    closed11 = GrassmannElem.basis((1 << w) - 1, m, ring).scale(ring.factorial(w))
    expected_full = GrMatrix.unit(n, m, ring, 1, 1).scale(closed11)
    entry_ok = value.entry(1, 1) == closed11
    nonzero = not value.is_zero()
    full_match = value == expected_full
    named = {
        "degree": len(inputs["mats"]),
        "closed_form": expected_full.compact_str(),
        "entry_11": str(value.entry(1, 1)),
        "entry_11_matches_closed_form": entry_ok,
        "nonzero": nonzero,
        "full_matrix_matches_closed_form": full_match,
        "value": value.compact_str(),
    }
    if not full_match:
        named["note"] = "value carries extra diagonal terms beyond the (1,1) closed form"
    return entry_ok and nonzero, named
