"""Exterior algebra elements: signs, grading, nilpotent powers."""

import math
import random
from itertools import combinations

import pytest

from grassmat.errors import (
    ContextMismatchError,
    IndexOutOfRangeError,
    MixedRingsError,
    NonIncreasingIndicesError,
)
from grassmat.grassmann import MAX_RANK, GrassmannElem, monomial_str
from grassmat.ring import QQ, ZZ, PrimeField


def gen(i, m=4, ring=ZZ):
    return GrassmannElem.generator(i, m, ring)


# ------------------------------------------------------------ basic signs

def test_generator_squares_to_zero():
    for m in (1, 3, 6):
        for i in range(1, m + 1):
            v = gen(i, m)
            assert (v * v).is_zero()


def test_generators_anticommute():
    m = 5
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == j:
                continue
            vi, vj = gen(i, m), gen(j, m)
            assert vi * vj == -(vj * vi)


def test_sign_frozen_case():
    # (v1 v3) * v2 = -v1 v2 v3: one transposition to sort.
    v13 = GrassmannElem.from_terms(4, ZZ, [((1, 3), 1)])
    v2 = gen(2)
    prod = v13 * v2
    v123 = GrassmannElem.from_terms(4, ZZ, [((1, 2, 3), 1)])
    assert prod == -v123


def test_overlapping_masks_multiply_to_zero():
    v12 = gen(1) * gen(2)
    v23 = gen(2) * gen(3)
    assert (v12 * v23).is_zero()


def _basis_elems(m, ring):
    return [GrassmannElem.basis(mask, m, ring) for mask in range(1 << m)]


def test_supercommutativity_exhaustive():
    # a*b = (-1)^(deg a * deg b) b*a over every basis pair, small ranks.
    for m in (2, 3, 4):
        elems = _basis_elems(m, ZZ)
        for a in elems:
            (da,) = a.degrees()
            for b in elems:
                (db,) = b.degrees()
                sign = -1 if (da * db) % 2 else 1
                assert a * b == (b * a).scale(sign)


def test_associativity_exhaustive_basis_triples():
    elems = _basis_elems(3, ZZ)
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)


def _random_elem(rng, m, ring, terms=3):
    out = GrassmannElem.zero(m, ring)
    for _ in range(terms):
        mask = rng.randrange(1 << m)
        c = ring.embed(rng.randint(-5, 5))
        out = out + GrassmannElem._make(m, ring, ring.clean_terms({mask: c}))
    return out


def test_associativity_random_multiterm():
    rng = random.Random(3)
    for ring in (ZZ, PrimeField(7)):
        for _ in range(25):
            a = _random_elem(rng, 5, ring)
            b = _random_elem(rng, 5, ring)
            c = _random_elem(rng, 5, ring)
            assert (a * b) * c == a * (b * c)


def test_distributivity_random():
    rng = random.Random(4)
    for _ in range(25):
        a = _random_elem(rng, 4, QQ)
        b = _random_elem(rng, 4, QQ)
        c = _random_elem(rng, 4, QQ)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


# ------------------------------------------------------------ grading

def test_components_and_degrees():
    x = GrassmannElem.scalar(2, 4, ZZ) + gen(1) + gen(1) * gen(2) + gen(3) * gen(4)
    assert x.degrees() == (0, 1, 2)
    assert x.component(0) == GrassmannElem.scalar(2, 4, ZZ)
    assert x.component(1) == gen(1)
    assert x.component(2) == gen(1) * gen(2) + gen(3) * gen(4)
    assert x.component(3).is_zero()
    total = x.component(0) + x.component(1) + x.component(2)
    assert total == x


def test_filtration_membership():
    # in_filtration(r): every term has degree at least r.
    x = gen(1) * gen(2) + gen(3) * gen(4)
    assert x.in_filtration(2)
    assert x.in_filtration(1)
    assert not x.in_filtration(3)
    assert GrassmannElem.zero(4, ZZ).in_filtration(5)
    y = GrassmannElem.one(4, ZZ) + gen(1)
    assert y.in_filtration(0)
    assert not y.in_filtration(1)


# ------------------------------------------------------------ powers

def test_square_of_even_sum_frozen():
    # (v1 v2 + v3 v4)^2 = 2 v1 v2 v3 v4.
    x = gen(1) * gen(2) + gen(3) * gen(4)
    sq = x * x
    top = GrassmannElem.from_terms(4, ZZ, [((1, 2, 3, 4), 2)])
    assert sq == top


def test_square_mixed_degree_frozen():
    # (v1 v2 + v3)^2 = 2 v1 v2 v3: cross terms add, v3 squares away.
    x = gen(1, 3) * gen(2, 3) + gen(3, 3)
    sq = x * x
    assert sq == GrassmannElem.from_terms(3, ZZ, [((1, 2, 3), 2)])


def _nilpotent_sum(m, ring):
    # v = v1 v2 + v3 v4 + ... (+ trailing odd generator if m is odd).
    v = GrassmannElem.zero(m, ring)
    for i in range(1, m - 1, 2):
        v = v + gen(i, m, ring) * gen(i + 1, m, ring)
    if m % 2:
        v = v + gen(m, m, ring)
    elif m >= 2:
        v = v + gen(m - 1, m, ring) * gen(m, m, ring)
    return v


def test_nilpotent_power_top_and_vanishing():
    # v^c = c! * v1...vm with c = ceil(m/2); v^(c+1) = 0.
    for m in range(0, 7):
        c = (m + 1) // 2
        v = _nilpotent_sum(m, ZZ)
        pc = v**c
        fact = math.factorial(c)
        top = GrassmannElem.from_terms(m, ZZ, [(tuple(range(1, m + 1)), fact)])
        assert pc == top
        assert (v ** (c + 1)).is_zero()


def test_pow_matches_repeated_mul():
    rng = random.Random(9)
    x = _random_elem(rng, 5, ZZ)
    acc = GrassmannElem.one(5, ZZ)
    for k in range(0, 5):
        assert x**k == acc
        acc = acc * x


# ------------------------------------------------------------ strings

def test_str_canonical_forms():
    assert str(GrassmannElem.zero(3, ZZ)) == "0"
    assert str(GrassmannElem.one(3, ZZ)) == "1"
    assert str(gen(2, 3)) == "v2"
    assert str(gen(1, 3) * gen(3, 3)) == "v1v3"
    x = GrassmannElem.from_terms(3, ZZ, [((), 2), ((1, 2), -1)])
    assert str(x) == "2 - v1v2"
    y = GrassmannElem.from_terms(3, ZZ, [((1,), 3)])
    assert str(y) == "3*v1"


def test_monomial_str():
    assert monomial_str(0) == ""
    assert monomial_str(0b101) == "v1v3"
    assert monomial_str(0b1010) == "v2v4"


# ------------------------------------------------------------ errors

def test_generator_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        GrassmannElem.generator(0, 3, ZZ)
    with pytest.raises(IndexOutOfRangeError):
        GrassmannElem.generator(4, 3, ZZ)


def test_from_terms_rejects_bad_index_tuples():
    with pytest.raises(NonIncreasingIndicesError):
        GrassmannElem.from_terms(3, ZZ, [((2, 1), 1)])
    with pytest.raises(NonIncreasingIndicesError):
        GrassmannElem.from_terms(3, ZZ, [((1, 1), 1)])
    with pytest.raises(IndexOutOfRangeError):
        GrassmannElem.from_terms(3, ZZ, [((0, 1), 1)])


def test_mixed_contexts_rejected():
    a = gen(1, 3)
    b = gen(1, 4)
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b
    c = gen(1, 3, QQ)
    with pytest.raises(MixedRingsError):
        a + c
    with pytest.raises(MixedRingsError):
        a * c


def test_rank_cap():
    GrassmannElem.zero(MAX_RANK, ZZ)
    with pytest.raises(IndexOutOfRangeError):
        GrassmannElem.zero(MAX_RANK + 1, ZZ)
    with pytest.raises(IndexOutOfRangeError):
        GrassmannElem.zero(-1, ZZ)


# ------------------------------------------------------------ json terms

def test_json_terms_round_trip():
    for ring in (ZZ, QQ, PrimeField(7)):
        rng = random.Random(13)
        x = _random_elem(rng, 4, ring)
        pairs = x.to_json_terms()
        for mask, coeff in pairs:
            assert 0 <= mask < (1 << 4)
            assert isinstance(coeff, str)
        keys = [(mask.bit_count(), mask) for mask, _ in pairs]
        assert keys == sorted(keys)
        back = GrassmannElem.from_json_terms(pairs, 4, ring)
        assert back == x
