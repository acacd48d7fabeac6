"""Matrices over the exterior algebra: arithmetic, grading, JSON, and
products that stay lifted until their entries are read."""

import random
from fractions import Fraction

import pytest

from oracles import entrywise_sum, poly_at_matrix_by_powers, ring_value_elem_mul, ring_value_matmul

from grassmat.errors import ContextMismatchError, IndexOutOfRangeError, MixedRingsError
from grassmat import gmatrix
from grassmat.gmatrix import GrMatrix, matrices_from_json, matrices_to_json
from grassmat.grassmann import GrassmannElem
from grassmat.identities import capelli_dp, standard_dp, standard_naive
from grassmat.poly import Poly
from grassmat.ring import QQ, ZZ, PrimeField

F2 = PrimeField(2)
F7 = PrimeField(7)


def gen(i, m=2, ring=ZZ):
    return GrassmannElem.generator(i, m, ring)


def sc(c, m=2, ring=ZZ):
    return GrassmannElem.scalar(c, m, ring)


def _random_matrix(rng, n, m, ring):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            e = GrassmannElem.zero(m, ring)
            for _ in range(2):
                mask = rng.randrange(1 << m)
                e = e + GrassmannElem.basis(mask, m, ring).scale(
                    ring.embed(rng.randint(-3, 3))
                )
            row.append(e)
        rows.append(row)
    return GrMatrix(rows)


# ------------------------------------------------------------ constructors

def test_constructor_shape_checks():
    with pytest.raises(ValueError):
        GrMatrix([])
    with pytest.raises(ValueError):
        GrMatrix([[sc(1)], [sc(1)]])
    with pytest.raises(ValueError):
        GrMatrix([[sc(1), sc(2)]])
    with pytest.raises(TypeError):
        GrMatrix([[1]])


def test_constructor_context_checks():
    with pytest.raises(MixedRingsError):
        GrMatrix([[sc(1, 2, ZZ), sc(1, 2, QQ)], [sc(0), sc(0)]])
    with pytest.raises(ContextMismatchError):
        GrMatrix([[sc(1, 2), sc(1, 3)], [sc(0, 2), sc(0, 2)]])


def test_identity_and_unit():
    I = GrMatrix.identity(3, 2, ZZ)
    for r in range(1, 4):
        for s in range(1, 4):
            expect = sc(1) if r == s else sc(0)
            assert I.entry(r, s) == expect
    E12 = GrMatrix.unit(2, 2, ZZ, 1, 2)
    assert E12.entry(1, 2) == sc(1)
    assert E12.entry(1, 1).is_zero()
    with pytest.raises(IndexOutOfRangeError):
        GrMatrix.unit(2, 2, ZZ, 0, 1)
    with pytest.raises(IndexOutOfRangeError):
        GrMatrix.unit(2, 2, ZZ, 1, 3)


def test_diag_constructor():
    D = GrMatrix.diag([gen(1), gen(2)])
    assert D.entry(1, 1) == gen(1)
    assert D.entry(2, 2) == gen(2)
    assert D.entry(1, 2).is_zero()
    with pytest.raises(ContextMismatchError):
        GrMatrix.diag([gen(1, 2), gen(1, 3)])


# ------------------------------------------------------------ arithmetic

def test_matmul_frozen_2x2():
    # [[v1, 1], [0, v2]] * [[v2, 0], [v1, 1]] = [[v1v2 + v1, 1], [v2v1, v2]].
    A = GrMatrix([[gen(1), sc(1)], [sc(0), gen(2)]])
    B = GrMatrix([[gen(2), sc(0)], [gen(1), sc(1)]])
    P = A * B
    v1v2 = gen(1) * gen(2)
    assert P.entry(1, 1) == v1v2 + gen(1)
    assert P.entry(1, 2) == sc(1)
    assert P.entry(2, 1) == -v1v2
    assert P.entry(2, 2) == gen(2)


def test_matmul_identity_and_zero():
    rng = random.Random(2)
    A = _random_matrix(rng, 3, 3, ZZ)
    I = GrMatrix.identity(3, 3, ZZ)
    Z = GrMatrix.zero(3, 3, ZZ)
    assert A * I == A
    assert I * A == A
    assert (A * Z).is_zero()
    assert (Z * A).is_zero()


def test_matmul_associative_random():
    rng = random.Random(5)
    for ring in (ZZ, PrimeField(7)):
        A = _random_matrix(rng, 2, 3, ring)
        B = _random_matrix(rng, 2, 3, ring)
        C = _random_matrix(rng, 2, 3, ring)
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C


def test_product_component_is_degree_convolution():
    rng = random.Random(8)
    A = _random_matrix(rng, 2, 4, ZZ)
    B = _random_matrix(rng, 2, 4, ZZ)
    P = A * B
    for d in range(0, 5):
        conv = GrMatrix.zero(2, 4, ZZ)
        for i in range(0, d + 1):
            conv = conv + A.component(i) * B.component(d - i)
        assert P.component(d) == conv


def test_pow_additivity():
    rng = random.Random(12)
    A = _random_matrix(rng, 2, 3, ZZ)
    assert A**0 == GrMatrix.identity(2, 3, ZZ)
    assert A**1 == A
    assert A**3 == (A**2) * A
    assert A**5 == (A**2) * (A**3)
    with pytest.raises(ValueError):
        A ** (-1)


def test_scale_and_plus_scalar():
    A = GrMatrix([[gen(1), sc(1)], [sc(0), gen(2)]])
    g = gen(1)
    S = A.scale(g)
    assert S.entry(1, 1).is_zero()
    assert S.entry(1, 2) == gen(1)
    assert S.entry(2, 2) == gen(1) * gen(2)
    C = A.scale_coeff(3)
    assert C.entry(1, 1) == gen(1).scale(3)
    P = A.plus_scalar(-2)
    assert P.entry(1, 1) == gen(1) + sc(-2)
    assert P.entry(2, 2) == gen(2) + sc(-2)
    assert P.entry(1, 2) == sc(1)


def test_add_sub_neg():
    rng = random.Random(3)
    A = _random_matrix(rng, 2, 2, QQ)
    B = _random_matrix(rng, 2, 2, QQ)
    assert A + B - B == A
    assert (A - A).is_zero()
    assert -(-A) == A
    with pytest.raises(ContextMismatchError):
        A + _random_matrix(rng, 3, 2, QQ)
    with pytest.raises(ContextMismatchError):
        A + _random_matrix(rng, 2, 3, QQ)
    with pytest.raises(MixedRingsError):
        A + _random_matrix(rng, 2, 2, ZZ)


# ------------------------------------------------------------ structure

def test_diag_split_sums_back():
    rng = random.Random(21)
    A = _random_matrix(rng, 3, 2, ZZ)
    dia, off = A.diag_split()
    assert dia + off == A
    for r in range(1, 4):
        for s in range(1, 4):
            if r == s:
                assert off.entry(r, s).is_zero()
            else:
                assert dia.entry(r, s).is_zero()


def test_matrix_filtration():
    A = GrMatrix([[gen(1) * gen(2), sc(0)], [sc(0), gen(1) * gen(2)]])
    assert A.in_filtration(2)
    assert not A.in_filtration(3)
    B = A + GrMatrix.unit(2, 2, ZZ, 1, 2).scale(gen(1))
    assert B.in_filtration(1)
    assert not B.in_filtration(2)


# ------------------------------------------------------------ text and json

def test_compact_str():
    E = GrMatrix.unit(2, 2, ZZ, 1, 2)
    assert E.compact_str() == "e12"
    F = E.scale(gen(1) * gen(2)).scale_coeff(2)
    assert F.compact_str() == "2*v1v2*e12"
    S = GrMatrix.unit(2, 2, ZZ, 1, 1).scale(gen(1) + gen(2))
    assert S.compact_str() == "(v1 + v2)*e11"
    assert S.scale_coeff(-1).compact_str() == "(-v1 - v2)*e11"
    G = GrMatrix.identity(2, 2, ZZ)
    assert "e" not in G.compact_str() or "\n" in G.compact_str()


def test_json_round_trip():
    rng = random.Random(17)
    for ring in (ZZ, QQ, PrimeField(11)):
        A = _random_matrix(rng, 2, 3, ring)
        data = A.to_json()
        assert set(data) == {"n", "m", "ring", "entries"}
        assert data["ring"] == ring.name
        back = GrMatrix.from_json(data)
        assert back == A


@pytest.mark.parametrize(
    "field, value", [("n", 2.9), ("n", True), ("m", "2"), ("m", 2.0), ("mask", 2.7), ("mask", True)]
)
def test_json_refuses_integers_that_are_not_ints(field, value):
    # int() would read each of these as another integer than was written
    data = GrMatrix.unit(2, 2, ZZ, 1, 1).to_json()
    if field == "mask":
        data["entries"][0][0][0][0] = value
    else:
        data[field] = value
    with pytest.raises(ValueError, match="integer"):
        GrMatrix.from_json(data)


def test_matrices_json_helpers():
    rng = random.Random(19)
    mats = [_random_matrix(rng, 2, 2, ZZ) for _ in range(3)]
    items = matrices_to_json(mats)
    assert isinstance(items, list) and len(items) == 3
    back = matrices_from_json(items)
    assert back == mats


# ------------------------------------------------------------ lazy products
#
# A product, a sum, a difference, a scaled matrix and every value built
# from them keep their lifted operand and lower it only when their rows
# are first read; these tests compare such values, before any read, with
# the oracles that run on ring values.

LAZY_RINGS = (ZZ, QQ, F2, F7)


def _draw(rng, n, m, ring):
    """A random matrix with two terms per entry; over QQ the
    coefficients carry denominators 1..4."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            acc = {}
            for _ in range(2):
                mask, num = rng.randrange(1 << m), rng.randint(-4, 4)
                c = Fraction(num, rng.randint(1, 4)) if ring == QQ else ring.embed(num)
                acc[mask] = ring.add(acc.get(mask, ring.zero), c)
            row.append(GrassmannElem._make(m, ring, ring.clean_terms(acc)))
        rows.append(row)
    return GrMatrix(rows)


def _assert_unread_equals(got, expected):
    assert got._rows is None  # nothing has lowered it yet
    assert got.is_zero() == expected.is_zero()
    assert got == expected
    for row in got.rows:
        for e in row:
            for c in e.terms.values():
                assert c and type(c) is (Fraction if got.ring == QQ else int)
                if got.ring.kind == "zmod":
                    assert 0 < c < got.ring.characteristic


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=str)
def test_lazy_products_and_powers_match_the_ring_value_product(ring):
    rng = random.Random(41)
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        A, B, C = (_draw(rng, n, m, ring) for _ in range(3))
        _assert_unread_equals(A * B, ring_value_matmul(A, B))
        # a product that was never read is itself a factor
        _assert_unread_equals((A * B) * C, ring_value_matmul(ring_value_matmul(A, B), C))
        _assert_unread_equals(C * (A * B), ring_value_matmul(C, ring_value_matmul(A, B)))
        AB = ring_value_matmul(A, B)
        fold, fold_ab = A, AB
        for k in range(2, 6):
            fold, fold_ab = ring_value_matmul(fold, A), ring_value_matmul(fold_ab, AB)
            _assert_unread_equals(A**k, fold)
            _assert_unread_equals((A * B) ** k, fold_ab)


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=str)
def test_lazy_at_matrix_matches_a_sum_of_powers(ring):
    rng = random.Random(42)
    polys = [
        Poly(ring, [3, -1, 0, 2, 1]),  # monic
        Poly(ring, [1, 0, 2, 0, 5]),  # not monic outside Z/2
        Poly(ring, [0, 1, 1]),  # Horner adds a zero constant
        Poly(ring, [-2, 0, 0, 0, 0, 3]),
    ]
    if ring == QQ:
        polys += [
            Poly(ring, [Fraction(1, 3), Fraction(-5, 2), 1, Fraction(7, 6)]),
            Poly(ring, [Fraction(-3, 4), Fraction(2, 9), Fraction(1, 2), 1]),
        ]
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        A = _draw(rng, n, m, ring)
        for f in polys:
            value = poly_at_matrix_by_powers(f, A)
            _assert_unread_equals(f.at_matrix(A), value)
            square = ring_value_matmul(value, value)
            _assert_unread_equals(f.at_matrix(A) ** 2, square)
            _assert_unread_equals(f.at_matrix(A) ** 3, ring_value_matmul(square, value))


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=str)
def test_horner_and_power_chains_lift_only_a_and_lower_nothing(monkeypatch, ring):
    calls = []
    lift, lower = type(ring).lift_terms, gmatrix._lower
    monkeypatch.setattr(type(ring), "lift_terms", lambda self, group: calls.append("lift") or lift(self, group))
    monkeypatch.setattr(gmatrix, "_lower", lambda op, r: calls.append("lower") or lower(op, r))
    A = _draw(random.Random(44), 3, 2, ring)
    c = Fraction(1, 2) if ring == QQ else 1
    f = Poly(ring, [c, 2, 0, 3, 1])
    P = f.at_matrix(A) ** 3
    P.is_zero()
    assert calls == ["lift"]
    P.rows
    assert calls == ["lift", "lower"]


def test_a_zero_power_over_z2_is_zero_before_its_rows_are_read():
    one = sc(1, 2, F2)
    A = GrMatrix([[one, one], [one, one]])
    for P in (A * A, A**2, A**3):
        assert P._rows is None
        assert P.is_zero()
        assert P._rows is None  # is_zero read the operand, not the rows
        assert P == GrMatrix.zero(2, 2, F2)
    assert (A * A).plus_scalar(1) == GrMatrix.identity(2, 2, F2)


def test_dps_on_unread_products_match_the_dps_on_lowered_copies():
    # the products keep numerators over the product of their factors'
    # denominators, never reduced, so the DPs' width lemma runs on
    # coefficients larger than the lowered copies carry
    rng = random.Random(43)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        mats = [_draw(rng, n, m, QQ) for _ in range(6)]
        prods = [mats[0] * mats[1], mats[2] ** 2, mats[3] * mats[4],
                 (mats[5] * mats[0]).plus_scalar(Fraction(2, 3)), mats[1] ** 3]
        assert all(P._rows is None and P._op.den > 1 for P in prods)
        got_s = standard_dp(prods[:4])
        got_c = capelli_dp(prods[:2], prods[2:5])
        assert all(P._rows is None for P in prods)
        copies = [GrMatrix(P.rows) for P in prods]
        _assert_unread_equals(got_s, standard_dp(copies[:4]))
        _assert_unread_equals(got_c, capelli_dp(copies[:2], copies[2:5]))


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=str)
def test_lazy_sums_match_the_entrywise_sum(ring):
    rng = random.Random(45)
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        A, B, C = (_draw(rng, n, m, ring) for _ in range(3))
        AB, BA = ring_value_matmul(A, B), ring_value_matmul(B, A)
        zero = GrMatrix.zero(n, m, ring)
        _assert_unread_equals(A + B, entrywise_sum(A, B))
        _assert_unread_equals(A - B, entrywise_sum(A, B, -1))
        _assert_unread_equals((A * B) + C, entrywise_sum(AB, C))
        _assert_unread_equals((A * B) - (B * A), entrywise_sum(AB, BA, -1))
        _assert_unread_equals(-A, entrywise_sum(zero, A, -1))
        _assert_unread_equals(-(A * B), entrywise_sum(zero, AB, -1))
        g = _draw(rng, 1, m, ring).entry(1, 1)
        scaled = GrMatrix([[ring_value_elem_mul(g, a) for a in row] for row in A.rows])
        _assert_unread_equals(A.scale(g), scaled)
        c = Fraction(3, 7) if ring == QQ else ring.embed(3)
        if ring == QQ:
            assert A._op.den % 7  # c's denominator does not divide A's
        cI = GrMatrix.diag([GrassmannElem.scalar(c, m, ring)] * n)
        _assert_unread_equals(A.plus_scalar(c), entrywise_sum(A, cI))
        _assert_unread_equals((A * B).plus_scalar(c), entrywise_sum(AB, cI))


@pytest.mark.parametrize("ring", LAZY_RINGS, ids=str)
def test_a_difference_with_itself_is_zero_before_its_rows_are_read(ring):
    rng = random.Random(46)
    A, B = _draw(rng, 3, 2, ring), _draw(rng, 3, 2, ring)
    for D in (A - A, (A * B) - (A * B), (A + B) - B - A, A.plus_scalar(2) - A.plus_scalar(2)):
        assert D._rows is None
        assert D.is_zero()
        assert D._rows is None  # is_zero read the operand, not the rows
        assert D == GrMatrix.zero(3, 2, ring)


def test_dps_on_rescaled_sums_match_the_dps_on_lowered_copies():
    # a third plus a quarter: both operands are rescaled to numerators
    # over 12, so the DPs' width lemma runs on the rescaled bound
    rng = random.Random(47)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        mats = [_draw(rng, n, m, QQ) for _ in range(6)]
        third = GrMatrix.identity(n, m, QQ).scale_coeff(Fraction(1, 3))
        sums = [third + mats[0].scale_coeff(Fraction(1, 4)), mats[1] + mats[2],
                (mats[3] * mats[4]) - mats[5].scale_coeff(Fraction(5, 3)), mats[4] - third,
                mats[5].plus_scalar(Fraction(2, 9))]
        assert all(S._rows is None and S._op.den > 1 for S in sums)
        assert all(S._op.bits >= gmatrix._bits(S._op.flat, QQ) for S in sums)
        got_s = standard_dp(sums[:4])
        got_c = capelli_dp(sums[:2], sums[2:5])
        copies = [GrMatrix(S.rows) for S in sums]
        _assert_unread_equals(got_s, standard_dp(copies[:4]))
        _assert_unread_equals(got_c, capelli_dp(copies[:2], copies[2:5]))


def test_scale_refuses_an_element_of_another_rank_or_ring():
    A = GrMatrix.identity(2, 2, ZZ)
    with pytest.raises(ContextMismatchError):
        A.scale(gen(1, m=3))
    with pytest.raises(MixedRingsError):
        A.scale(gen(1, ring=F7))


def test_the_naive_standard_sum_lowers_once_when_its_value_is_read(monkeypatch):
    calls = []
    lower = gmatrix._lower
    monkeypatch.setattr(gmatrix, "_lower", lambda op, r: calls.append("lower") or lower(op, r))
    rng = random.Random(48)
    mats = [_draw(rng, 3, 2, F7) for _ in range(4)]
    value = standard_naive(mats)
    assert calls == []  # no word was lowered to be added
    value.rows
    assert calls == ["lower"]
