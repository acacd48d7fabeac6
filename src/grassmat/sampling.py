"""Seeded draws for the campaigns: trial substreams, random entries and
matrices, and the atoms.

A campaign seed and a stream index pin every draw through splitmix64, so
a campaign draws the same inputs on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

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


def random_coeff(rng: random.Random, ring: Ring):
    """Small nonzero coefficient: [-9,9] over int, uniform nonzero mod p,
    small fractions over rat."""
    if ring.kind == ZMOD:
        return rng.randrange(1, ring.characteristic)
    num = rng.choice(_SMALL_NONZERO)
    if ring.kind == RAT:
        return Fraction(num, rng.randint(1, 4))
    return num


def _random_terms(rng: random.Random, m: int, ring: Ring, count: int, draw_mask) -> GrassmannElem:
    """Sum of `count` monomials draw_mask(rng) with random coefficients."""
    _check_rank(m)
    acc: dict = {}
    for _ in range(count):
        mask = draw_mask(rng)
        acc[mask] = acc.get(mask, 0) + ring.coerce(random_coeff(rng, ring))
    return GrassmannElem._make(m, ring, ring.clean_terms(acc))


def random_grassmann(rng: random.Random, m: int, ring: Ring, sparsity: int) -> GrassmannElem:
    """Sum of `sparsity` random basis monomials with random coefficients."""
    return _random_terms(rng, m, ring, sparsity, lambda rng: rng.randrange(1 << m))


def random_grmatrix(rng: random.Random, n: int, m: int, ring: Ring, sparsity: int) -> GrMatrix:
    """Entrywise random_grassmann draws; sparsity 0 gives the zero matrix."""
    return GrMatrix([[random_grassmann(rng, m, ring, sparsity) for _ in range(n)] for _ in range(n)])


def random_degree1_grmatrix(
    rng: random.Random, n: int, m: int, ring: Ring, sparsity: int
) -> GrMatrix:
    """Entries are sums of single generators; the zero matrix when m = 0."""
    count = sparsity if m else 0  # no generator to draw

    def entry():
        return _random_terms(rng, m, ring, count, lambda rng: 1 << (rng.randint(1, m) - 1))

    return GrMatrix([[entry() for _ in range(n)] for _ in range(n)])


def atom(n: int, m: int, ring: Ring, i: int) -> GrMatrix:
    """atoms(n, m, ring)[i]: unit e_rs with (r - 1, s - 1) = divmod(i >> m, n),
    times the basis monomial of mask i % 2^m."""
    r, s = divmod(i >> m, n)
    return GrMatrix.unit(n, m, ring, r + 1, s + 1).scale(GrassmannElem.basis(i % (1 << m), m, ring))


def atoms(n: int, m: int, ring: Ring) -> List[GrMatrix]:
    """All b * e_rs with b a basis monomial, ordered by (r, s, mask).

    By multilinearity, an alternating identity vanishes on all matrices
    iff it vanishes on all tuples of these.
    """
    return [atom(n, m, ring, i) for i in range(n * n << m)]
