"""Products of elements and matrices on integer numerators, every ring.

GrMatrix.__mul__ and GrassmannElem.__mul__ lift their operands to
integer numerators over a common denominator and lower each result
once (Ring.lift_terms, Ring.lower_terms).  tests/oracles.py keeps the
products that run the term kernel on the ring's own values; the two
must agree term for term, and every stored coefficient must stay
canonical: a nonzero Fraction over the rationals, a nonzero int over
the integers, a nonzero residue in [0, p) over Z/p.
"""

import random
from fractions import Fraction

import pytest

from oracles import ring_value_elem_mul, ring_value_matmul

from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.ring import QQ, ZMOD, ZZ, PrimeField

F2 = PrimeField(2)
F7 = PrimeField(7)
ORACLE_RINGS = (QQ, ZZ, F2, F7)
PROPERTY_RINGS = (ZZ, QQ, F7)

SMALL_DENOMINATORS = (1, 2, 3, 4)
LARGE_DENOMINATORS = (1, 3, 10**9 + 7, 2**61 - 1)


def _assert_canonical(terms: dict, ring) -> None:
    for c in terms.values():
        assert c, terms
        if ring == QQ:
            assert type(c) is Fraction, terms
        else:
            assert type(c) is int, terms
            if ring.kind == ZMOD:
                assert 0 <= c < ring.modulus, terms


def _assert_matrix_canonical(A: GrMatrix) -> None:
    for row in A.rows:
        for e in row:
            _assert_canonical(e.terms, A.ring)


def _random_coeff(rng, ring, denominators):
    num = rng.choice((-1, 1)) * rng.randint(1, 9)
    if rng.random() < 0.1:
        num *= 2**70 + 1
    if ring == QQ:
        return Fraction(num, rng.choice(denominators))
    return ring.coerce(num)


def _random_elem(rng, m, ring, denominators):
    """Zero a quarter of the time, else up to three random terms."""
    acc: dict = {}
    if rng.random() >= 0.25:
        for _ in range(rng.randint(1, 3)):
            mask = rng.randrange(1 << m)
            acc[mask] = acc.get(mask, 0) + _random_coeff(rng, ring, denominators)
    return GrassmannElem._make(m, ring, ring.clean_terms(acc))


def _random_matrix(rng, n, m, ring, denominators):
    return GrMatrix(
        [[_random_elem(rng, m, ring, denominators) for _ in range(n)] for _ in range(n)]
    )


def _denominator_pools(ring):
    return (SMALL_DENOMINATORS, LARGE_DENOMINATORS) if ring == QQ else ((1,),)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
def test_matrix_product_matches_ring_value_oracle(ring):
    rng = random.Random(6)
    for dens in _denominator_pools(ring):
        for n in range(1, 5):
            for m in range(5):
                for _ in range(3):
                    A = _random_matrix(rng, n, m, ring, dens)
                    B = _random_matrix(rng, n, m, ring, dens)
                    got = A * B
                    assert got == ring_value_matmul(A, B)
                    _assert_matrix_canonical(got)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
def test_element_product_matches_ring_value_oracle(ring):
    rng = random.Random(7)
    for dens in _denominator_pools(ring):
        for m in range(5):
            for _ in range(40):
                a = _random_elem(rng, m, ring, dens)
                b = _random_elem(rng, m, ring, dens)
                got = a * b
                assert got == ring_value_elem_mul(a, b)
                _assert_canonical(got.terms, ring)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
def test_cancelling_products_store_no_zero(ring):
    # row (a, a) times column (b, -b): every term of the entry cancels
    m = 2
    a = GrassmannElem.from_terms(m, ring, [((), Fraction(1, 3) if ring == QQ else 1), ((1,), 2)])
    b = GrassmannElem.from_terms(m, ring, [((2,), Fraction(5, 4) if ring == QQ else 3)])
    z = GrassmannElem.zero(m, ring)
    A = GrMatrix([[a, a], [z, a]])
    B = GrMatrix([[b, z], [-b, b]])
    got = A * B
    assert got == ring_value_matmul(A, B)
    assert not got.rows[0][0].terms
    _assert_matrix_canonical(got)
    assert (a * z).terms == {}


def test_rational_products_over_large_coprime_denominators():
    p, q = 10**9 + 7, 2**61 - 1
    a = GrassmannElem.from_terms(3, QQ, [((), Fraction(-1, p)), ((1,), Fraction(2, q))])
    b = GrassmannElem.from_terms(3, QQ, [((2,), Fraction(p, 3)), ((1, 3), Fraction(-q, p))])
    assert a * b == ring_value_elem_mul(a, b)
    assert (a * b).coeff(0b010) == Fraction(-1, 3)
    A = GrMatrix([[a, b], [b, a]])
    got = A * A
    assert got == ring_value_matmul(A, A)
    _assert_matrix_canonical(got)


def test_rank_zero_and_one_by_one():
    for ring in ORACLE_RINGS:
        half = Fraction(-1, 2) if ring == QQ else ring.coerce(-1)
        A = GrMatrix([[GrassmannElem.scalar(half, 0, ring)]])
        got = A * A
        assert got == ring_value_matmul(A, A)
        assert got.rows[0][0].coeff(0) == ring.mul(half, half)
        _assert_matrix_canonical(got)


# ------------------------------------------------------------ properties


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def _coeffs(st, ring):
    if ring == QQ:
        return st.builds(
            Fraction,
            st.integers(-9, 9),
            st.sampled_from(SMALL_DENOMINATORS + LARGE_DENOMINATORS),
        )
    return st.integers(-9, 9).map(ring.coerce)


def _elems(st, ring, m, masks=None):
    masks = st.sampled_from(masks) if masks else st.integers(0, (1 << m) - 1)
    return st.dictionaries(masks, _coeffs(st, ring), max_size=4).map(
        lambda terms: GrassmannElem._make(m, ring, ring.clean_terms(terms))
    )


def _matrices(st, ring, n, m):
    return st.lists(
        st.lists(_elems(st, ring, m), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(GrMatrix)


def test_matrix_products_associate_and_distribute_property():
    hypothesis, st = _hypothesis()

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(
        ring=st.sampled_from(PROPERTY_RINGS),
        n=st.integers(1, 3),
        m=st.integers(0, 3),
        data=st.data(),
    )
    def check(ring, n, m, data):
        A, B, C = (data.draw(_matrices(st, ring, n, m)) for _ in range(3))
        AB = A * B
        _assert_matrix_canonical(AB)
        assert AB * C == A * (B * C)
        assert A * (B + C) == AB + A * C
        assert (A + B) * C == A * C + B * C

    check()


def test_homogeneous_elements_supercommute_property():
    hypothesis, st = _hypothesis()

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
    @hypothesis.given(
        ring=st.sampled_from(PROPERTY_RINGS),
        m=st.integers(0, 5),
        data=st.data(),
    )
    def check(ring, m, data):
        da = data.draw(st.integers(0, m))
        db = data.draw(st.integers(0, m))
        a, b = (
            data.draw(_elems(st, ring, m, [s for s in range(1 << m) if s.bit_count() == d]))
            for d in (da, db)
        )
        ab = a * b
        _assert_canonical(ab.terms, ring)
        assert ab == (b * a).scale(-1 if da * db % 2 else 1)

    check()
