"""Seeded draws for the campaigns: trial substreams, random entries and
matrices, and the atoms.

A campaign seed and a stream index pin every draw through splitmix64, so
a campaign draws the same inputs on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List

from .errors import IndexOutOfRangeError
from .gmatrix import GrMatrix
from .grassmann import GrassmannElem, _check_rank
from .ring import RAT, ZMOD, Ring

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
# lcm(1, 2, 3, 4): a rat draw num/d is the integer num * (12 // d) over 12
_RAT_DEN = 12


def _random_numerator(rng: random.Random, ring: Ring) -> int:
    """random_coeff(rng, ring) times _RAT_DEN over rat, as an int, with the
    same rng calls."""
    if ring.kind == ZMOD:
        return rng.randrange(1, ring.characteristic)
    num = rng.choice(_SMALL_NONZERO)
    if ring.kind == RAT:
        return num * (_RAT_DEN // rng.randint(1, 4))
    return num


def random_coeff(rng: random.Random, ring: Ring):
    """Small nonzero coefficient: [-9,9] over int, uniform nonzero mod p,
    num/d with num in [-9,9] and d in 1..4 over rat."""
    num = _random_numerator(rng, ring)
    return Fraction(num, _RAT_DEN) if ring.kind == RAT else num


def _random_terms(rng: random.Random, m: int, ring: Ring, masks: Iterable[int]) -> GrassmannElem:
    """Sum of the monomials of masks, each with a random coefficient.

    masks may be a lazy iterable that draws from rng, one mask before
    each coefficient.  The coefficients add up as integer numerators
    over one denominator (_RAT_DEN over rat, 1 otherwise), lowered once
    (Ring.lower_terms)."""
    _check_rank(m)
    acc: dict = {}
    for mask in masks:
        acc[mask] = acc.get(mask, 0) + _random_numerator(rng, ring)
    return GrassmannElem._make(m, ring, ring.lower_terms(acc, _RAT_DEN if ring.kind == RAT else 1))


def random_grassmann(rng: random.Random, m: int, ring: Ring, sparsity: int) -> GrassmannElem:
    """Sum of `sparsity` random basis monomials with random coefficients."""
    return _random_terms(rng, m, ring, (rng.randrange(1 << m) for _ in range(sparsity)))


def random_grmatrix(rng: random.Random, n: int, m: int, ring: Ring, sparsity: int) -> GrMatrix:
    """Entrywise random_grassmann draws; sparsity 0 gives the zero matrix."""
    return GrMatrix([[random_grassmann(rng, m, ring, sparsity) for _ in range(n)] for _ in range(n)])


def random_degree1_grmatrix(
    rng: random.Random, n: int, m: int, ring: Ring, sparsity: int
) -> GrMatrix:
    """Entries are sums of min(sparsity, m) distinct generators with random
    coefficients, so a nonzero sparsity gives a nonzero degree-1 entry in
    every ring; the zero matrix when m = 0."""
    count = min(sparsity, m)

    def entry():
        return _random_terms(rng, m, ring, [1 << i for i in rng.sample(range(m), count)])

    return GrMatrix([[entry() for _ in range(n)] for _ in range(n)])


def atom(n: int, m: int, ring: Ring, i: int) -> GrMatrix:
    """atoms(n, m, ring)[i]: unit e_rs with (r - 1, s - 1) = divmod(i >> m, n),
    times the basis monomial of mask i % 2^m."""
    if not 0 <= i < n * n << m:
        raise IndexOutOfRangeError(f"atom {i} outside 0..{(n * n << m) - 1}")
    rs = i >> m
    z = GrassmannElem.zero(m, ring)
    b = GrassmannElem.basis(i % (1 << m), m, ring)
    return GrMatrix._make(
        n, m, ring,
        tuple(tuple(b if r * n + s == rs else z for s in range(n)) for r in range(n)),
    )


def atoms(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """All b * e_rs with b a basis monomial, ordered by (r, s, mask).

    By multilinearity, an alternating identity vanishes on all matrices
    iff it vanishes on all tuples of these.
    """
    return [atom(n, m, ring, i) for i in range(n * n << m)]
