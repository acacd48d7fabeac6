"""Polynomials and characteristic polynomials, cross-checked by Leibniz."""

import random
from fractions import Fraction

import pytest

from grassmat.errors import ContextMismatchError, MixedRingsError, NonScalarEntriesError
from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.poly import Poly, charpoly, scalar_rows
from grassmat.ring import QQ, ZZ, PrimeField

from oracles import leibniz_charpoly, perm_sign_by_inversions


def scalar_matrix(vals, m, ring):
    return GrMatrix(
        [[GrassmannElem.scalar(v, m, ring) for v in row] for row in vals]
    )


# ------------------------------------------------------------ polynomials

def test_constructor_trims_trailing_zeros():
    p = Poly(ZZ, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(ZZ, [0, 0]).is_zero()
    assert Poly.zero(ZZ).degree == -1


def test_ring_arithmetic():
    p = Poly(ZZ, [1, 1])
    q = Poly(ZZ, [-1, 1])
    assert p * q == Poly(ZZ, [-1, 0, 1])
    assert p + q == Poly(ZZ, [0, 2])
    assert p - p == Poly.zero(ZZ)
    assert (p * Poly.zero(ZZ)).is_zero()
    with pytest.raises(MixedRingsError):
        p + Poly(QQ, [1])


def test_from_roots_monic_and_vanishing():
    for ring in (ZZ, QQ, PrimeField(7)):
        roots = [ring.embed(r) for r in (0, 1, 3)]
        f = Poly.from_roots(ring, roots)
        assert f.is_monic()
        assert f.degree == 3
        for r in roots:
            assert ring.is_zero(f(r))


def test_from_roots_frozen_coeffs():
    # (x-1)(x-2) = x^2 - 3x + 2.
    f = Poly.from_roots(ZZ, [1, 2])
    assert f.coeffs == (2, -3, 1)


def test_derivative():
    f = Poly(ZZ, [5, 3, 0, 2])  # 2x^3 + 3x + 5
    assert f.derivative() == Poly(ZZ, [3, 0, 6])
    assert Poly(ZZ, [7]).derivative().is_zero()
    g = Poly(QQ, [Fraction(1, 2), Fraction(1, 3)])
    assert g.derivative() == Poly(QQ, [Fraction(1, 3)])


def test_evaluate_scalar():
    f = Poly(ZZ, [2, -3, 1])
    assert f(0) == 2
    assert f(1) == 0
    assert f(5) == 12
    F7 = PrimeField(7)
    g = Poly(F7, [2, 4, 1])
    assert g(3) == (2 + 12 + 9) % 7


def test_str_forms():
    assert str(Poly.zero(ZZ)) == "0"
    assert str(Poly(ZZ, [2, -3, 1])) == "x^2 - 3*x + 2"
    assert str(Poly(ZZ, [0, 1])) == "x"
    assert str(Poly(ZZ, [0, -1])) == "-x"
    assert str(Poly(QQ, [Fraction(1, 2)])) == "1/2"


# ------------------------------------------------------------ charpoly

def test_perm_sign_oracle_agrees_with_parity():
    from itertools import permutations

    for perm in permutations(range(4)):
        inv = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        assert perm_sign_by_inversions(perm) == (-1) ** inv


def test_charpoly_matches_leibniz_oracle():
    rng = random.Random(23)
    for ring in (ZZ, PrimeField(7)):
        for n in range(1, 5):
            for _ in range(6):
                vals = [
                    [rng.randint(-4, 4) for _ in range(n)] for _ in range(n)
                ]
                A = scalar_matrix(vals, 2, ring)
                got = charpoly(A)
                want = leibniz_charpoly(A)
                assert got == want
                assert got.is_monic()
                assert got.degree == n


def test_charpoly_zero_matrix_and_jordan_block():
    for n in (1, 2, 3, 4):
        Z = GrMatrix.zero(n, 0, ZZ)
        xs_to_n = Poly(ZZ, [0] * n + [1])
        assert charpoly(Z) == xs_to_n
        # Nilpotent Jordan block: ones above the diagonal.
        vals = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        J = scalar_matrix(vals, 0, ZZ)
        assert charpoly(J) == xs_to_n


def test_charpoly_diagonal_equals_from_roots():
    vals = [[1, 0, 0], [0, 2, 0], [0, 0, 5]]
    A = scalar_matrix(vals, 1, ZZ)
    assert charpoly(A) == Poly.from_roots(ZZ, [1, 2, 5])


def test_charpoly_frozen_2x2():
    A = scalar_matrix([[1, 0], [0, 2]], 0, ZZ)
    assert charpoly(A).coeffs == (2, -3, 1)


def test_scalar_rows_rejects_positive_degree():
    v1 = GrassmannElem.generator(1, 2, ZZ)
    one = GrassmannElem.one(2, ZZ)
    A = GrMatrix([[one, v1], [one, one]])
    with pytest.raises(NonScalarEntriesError):
        scalar_rows(A)
    with pytest.raises(NonScalarEntriesError):
        charpoly(A)


# ------------------------------------------------------------ at matrix

def test_at_matrix_annihilates_own_scalar_matrix():
    # Scalar matrices satisfy their characteristic polynomial on the nose.
    rng = random.Random(31)
    for ring in (ZZ, PrimeField(5)):
        for n in (2, 3):
            vals = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            A = scalar_matrix(vals, 2, ring)
            f = charpoly(A)
            assert f.at_matrix(A).is_zero()


def test_at_matrix_frozen_diag():
    A = scalar_matrix([[1, 0], [0, 2]], 0, ZZ)
    f = Poly.from_roots(ZZ, [1, 2])
    assert f.at_matrix(A).is_zero()
    g = Poly(ZZ, [0, 1])  # f(x) = x
    assert g.at_matrix(A) == A


def test_at_matrix_ring_mismatch():
    A = scalar_matrix([[1]], 0, ZZ)
    with pytest.raises(ContextMismatchError):
        Poly(QQ, [1]).at_matrix(A)

