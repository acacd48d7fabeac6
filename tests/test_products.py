"""Products of elements and matrices on integer numerators, every ring.

GrMatrix.__mul__ and GrassmannElem.__mul__ lift their operands to
integer numerators over a common denominator and lower each result
once (Ring.lift_terms, Ring.lower_terms); GrMatrix.__mul__ also packs
each column of the left factor and each row of the right factor into
signed W-bit digits, so entry (i, j) of the product is digit n*i + j.
tests/oracles.py keeps the
products that run the term kernel on the ring's own values; the two
must agree term for term, and every stored coefficient must stay
canonical: a nonzero Fraction over the rationals, a nonzero int over
the integers, a nonzero residue in [0, p) over Z/p.  The term kernel
itself, grassmann.mul_into, is checked against oracles.pairwise_mul_into,
a loop over every pair of terms signed by counting inversions.
"""

import random
from fractions import Fraction

import pytest

from oracles import (
    _mul_sign,
    pairwise_mul_into,
    poly_at_matrix_by_powers,
    ring_value_elem_mul,
    ring_value_matmul,
)

from grassmat import gmatrix
from grassmat.gmatrix import GrMatrix, _digits
from grassmat.grassmann import GrassmannElem, _sign_mask, mul_into, signed_products
from grassmat.poly import Poly
from grassmat.ring import QQ, ZMOD, ZZ, PrimeField

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)
F1000003 = PrimeField(1000003)
ORACLE_RINGS = (QQ, ZZ, F2, F7, F1000003)
PROPERTY_RINGS = (ZZ, QQ, F7)
WIDE_RINGS = (ZZ, QQ, F2, F1000003)
POWER_RINGS = (ZZ, QQ, F5)

SMALL_DENOMINATORS = (1, 2, 3, 4)
LARGE_DENOMINATORS = (1, 3, 10**9 + 7, 2**61 - 1)
WIDE_DENOMINATORS = (10**9 + 7, 2**61 - 1)
# n <= 4 and m <= 6; n * 2^m is not a power of two for n = 3, so there a
# digit of the aligned pairs below needs every bit of W
WIDE_SHAPES = ((1, 0), (1, 4), (2, 0), (2, 3), (3, 1), (3, 2), (3, 6), (4, 2), (4, 6))


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


def _top(ring, rng, den=None):
    """A coefficient whose lift is as wide as the ring allows: +-(2^62 - j)
    over ZZ with 0 < j < 10, that over den (or a random wide denominator) over QQ, and
    p - 1 over Z/p."""
    if ring.kind == ZMOD:
        return ring.modulus - 1
    c = rng.choice((1, -1)) * (2**62 - rng.randrange(1, 10))
    return c if ring == ZZ else Fraction(c, den or rng.choice(WIDE_DENOMINATORS))


def _wide_elem(rng, m, ring, terms):
    acc = {rng.randrange(1 << m): _top(ring, rng) for _ in range(terms)}
    return GrassmannElem._make(m, ring, ring.clean_terms(acc))


def _aligned_pair(rng, n, m, ring, alternate=False):
    """A, B dense over every mask, with each term of A carrying the sign of
    its product into the full mask: every product the entries' top digit
    sums has one sign, so that digit nears n 2^m c_a c_b.  alternate
    gives row i of A the sign (-1)^i and column j of B the sign (-1)^j,
    so entry (i, j) of the product has the sign (-1)^(i+j): at odd n the
    digits n*i + j of the packed product alternate in sign."""
    full = (1 << m) - 1
    den_a, den_b = WIDE_DENOMINATORS
    a = [abs(_top(ring, rng, den_a)) for _ in range(n * n)]
    b = [abs(_top(ring, rng, den_b)) for _ in range(n * n)]

    def elem(c, signed):
        terms = {s: ring.coerce(_mul_sign(s, full ^ s) * c if signed else c) for s in range(full + 1)}
        return GrassmannElem._make(m, ring, ring.clean_terms(terms))

    def sign(i):
        return -1 if alternate and i & 1 else 1

    return (
        GrMatrix([[elem(sign(i) * a[i * n + k], True) for k in range(n)] for i in range(n)]),
        GrMatrix([[elem(sign(j) * b[k * n + j], False) for j in range(n)] for k in range(n)]),
    )


def _wide_pairs(seed):
    """(A, B) over WIDE_RINGS and WIDE_SHAPES: an aligned pair, a random
    pair with a zero row in A and a zero column in B, and a pair whose
    entry (1, 1) cancels fully."""
    rng = random.Random(seed)
    for ring in WIDE_RINGS:
        for n, m in WIDE_SHAPES:
            yield _aligned_pair(rng, n, m, ring)
            z = GrassmannElem.zero(m, ring)
            A = [[_wide_elem(rng, m, ring, rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            B = [[_wide_elem(rng, m, ring, rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            A[rng.randrange(n)] = [z] * n
            for row in B:
                row[n - 1] = z
            yield GrMatrix(A), GrMatrix(B)
            if n > 1:
                # row (a, a, ...) times column (b, -b, 0, ...)
                a, b = _wide_elem(rng, m, ring, 2), _wide_elem(rng, m, ring, 2)
                A[0] = [a] * n
                B[0][0], B[1][0] = b, -b
                for row in B[2:]:
                    row[0] = z
                yield GrMatrix(A), GrMatrix(B)


# ------------------------------------------------------------ term kernel


def test_sign_mask_matches_inversion_count():
    # every disjoint pair of masks below 2^8, then random pairs up to bit 61
    pairs = [(sa, sb) for sa in range(1 << 8) for sb in range(1 << 8) if not sa & sb]
    assert len(pairs) == 3**8
    rng = random.Random(11)
    for _ in range(3000):
        sa = rng.getrandbits(62)
        pairs.append((sa, rng.getrandbits(62) & ~sa))
    pairs += [(1 << 61, (1 << 61) - 1), ((1 << 61) - 1, 1 << 61), ((1 << 62) - 1, 0)]
    for sa, sb in pairs:
        sign = -1 if (sb & _sign_mask(sa)).bit_count() & 1 else 1
        assert sign == _mul_sign(sa, sb), (sa, sb)
    for sa, sb in pairs[:: 7]:
        assert signed_products({sa: 5}, sb) == [(sa | sb, 5 * _mul_sign(sa, sb))]


class _CountingGets(dict):
    """A term dict that counts the lookups the submask walk makes."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


def _terms(rng, masks, count):
    return {rng.choice(masks): rng.choice([c for c in range(-9, 10) if c]) for _ in range(count)}


def _kernel_cases():
    """(name, acc, ta, tb, walks) over both branches of mul_into;
    walks says whether the submask walk should look tb up."""
    rng = random.Random(12)
    six = range(1 << 6)
    dense = {s: rng.randint(1, 9) for s in six if rng.random() < 0.9}
    yield "dense", {}, _terms(rng, six, 30), dense, True
    yield "dense-other", {}, _terms(rng, six, 30), dense, True
    yield "dense-acc", {s: 1 for s in six[::3]}, _terms(rng, six, 30), dense, True
    yield "dense-fractions", {}, {s: Fraction(c, 3) for s, c in _terms(rng, six, 20).items()}, {
        s: Fraction(c, 7) for s, c in dense.items()}, True
    # three bits each out of 40: many disjoint pairs, and free is wide
    wide = [sum(1 << b for b in rng.sample(range(40), 3)) for _ in range(40)]
    yield "sparse", {}, _terms(rng, wide, 25), _terms(rng, wide, 25), False
    yield "sparse-acc", {0: 4, wide[0]: -2}, _terms(rng, wide, 25), _terms(rng, wide, 25), False
    yield "empty-ta", {1: 2}, {}, dense, False
    yield "empty-tb", {1: 2}, _terms(rng, six, 10), {}, False
    yield "two-terms", {}, _terms(rng, six, 10), {0: 3, 0b100: -1}, False
    # m = 62: right factor dense over the top five bits, left masks near bit 61
    top = [s << 57 for s in range(32)]
    low = [rng.getrandbits(57) for _ in range(8)]
    yield "top-dense", {}, _terms(rng, [t | l for t in top for l in low], 40), {
        s: rng.randint(1, 9) for s in top}, True
    yield "top-sparse", {1 << 61: 5}, _terms(rng, [rng.getrandbits(62) for _ in range(30)], 20), {
        1 << 61: 5, (1 << 61) - 1: -3, 1 << 60: 2, 3 << 58: 7, 0: 1}, False


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda c: c[0])
def test_mul_into_matches_a_loop_over_every_pair(case):
    _, acc, ta, tb, walks = case
    want = dict(acc)
    pairwise_mul_into(want, ta, tb)
    tb = _CountingGets(tb)
    got = dict(acc)
    mul_into(got, ta, tb)
    assert got == want
    assert (got != acc) == bool(ta and tb)
    # the walk looks up at most min(len(tb), 2^|free|) masks per left term,
    # and only when tb has more than two terms
    span = 0
    for sb in tb:
        span |= sb
    bound = sum(min(len(tb), 1 << (span & ~sa).bit_count()) for sa in ta) if len(tb) > 2 else 0
    assert tb.gets <= bound
    assert (tb.gets > 0) == walks


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
    for A, B in _wide_pairs(6):
        if A.ring == ring:
            got = A * B
            assert got == ring_value_matmul(A, B)
            _assert_matrix_canonical(got)


def test_product_digits_stay_below_half_the_width(monkeypatch):
    # Each entry of each product is recomputed over ZZ from the factors
    # lifted once each, as gmatrix._lift lifts them; every digit must stay
    # below 2^(W-1), and the packed values the product decodes must be
    # exactly those digits, entry (i, j) at digit n*i + j of the value
    # keyed by the mask u.  The alternating aligned pairs reach 2^(W-2),
    # so a W one bit short fails.
    seen = []

    def spy(P, width):
        seen.append((P, width))
        return _digits(P, width)

    monkeypatch.setattr(gmatrix, "_digits", spy)
    rng = random.Random(24)
    cases = [(False, A, B) for A, B in _wide_pairs(23)] + [
        (True, *_aligned_pair(rng, n, m, ring, alternate=True))
        for ring in (ZZ, QQ)
        for n, m in WIDE_SHAPES
        if n == 3
    ]
    checked = 0
    for reaches, A, B in cases:
        seen.clear()
        A * B
        (width,) = {w for _, w in seen} or {None}
        n, lift = A.n, A.ring.lift_terms
        fa, fb = (lift([e.terms for row in X.rows for e in row])[0] for X in (A, B))
        entries = []
        for i in range(n):
            for j in range(n):
                acc: dict = {}
                for t in range(n):
                    mul_into(acc, fa[i * n + t], fb[t * n + j])
                entries.append(acc)
        packed, top = [], 0
        for u in set().union(*entries):
            digits = [e.get(u, 0) for e in entries]
            assert all(abs(d) < 1 << (width - 1) for d in digits)
            top = max(top, *map(abs, digits))
            checked += len(digits)
            packed.append(sum(d << (width * k) for k, d in enumerate(digits)))
        assert sorted(P for P, _ in seen if P) == sorted(P for P in packed if P)
        if reaches:
            assert top >= 1 << (width - 2)
    assert checked > 8000


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


# ------------------------------------------------------------ powers and polynomials


@pytest.fixture
def products(monkeypatch):
    """A list that GrMatrix.__mul__ appends to on every product."""
    calls = []
    mul = GrMatrix.__mul__

    def spy(A, B):
        calls.append(None)
        return mul(A, B)

    monkeypatch.setattr(GrMatrix, "__mul__", spy)
    return calls


@pytest.mark.parametrize("ring", POWER_RINGS, ids=str)
def test_powers_match_a_left_fold_of_products(ring, products):
    rng = random.Random(8)
    for n, m in ((1, 2), (2, 2), (3, 3)):
        A = _random_matrix(rng, n, m, ring, SMALL_DENOMINATORS)
        fold = GrMatrix.identity(n, m, ring)
        for k in range(7):
            products.clear()
            assert A**k == fold
            assert len(products) == (k.bit_length() + k.bit_count() - 2 if k else 0)
            fold = ring_value_matmul(fold, A)


def test_power_product_count_by_squaring(products):
    A = _random_matrix(random.Random(9), 2, 2, F7, (1,))
    for e in (1, 2, 3, 7, 8, 13, 32, 33):
        products.clear()
        A**e
        assert len(products) == e.bit_length() + e.bit_count() - 2


@pytest.mark.parametrize("ring", POWER_RINGS, ids=str)
def test_at_matrix_matches_a_sum_of_powers(ring, products):
    rng = random.Random(10)
    c = ring.coerce(Fraction(-3, 2) if ring == QQ else 3)
    polys = [
        Poly.zero(ring),
        Poly(ring, [c]),
        Poly(ring, [1, c]),
        Poly(ring, [c, 0, 0, -1]),
        Poly(ring, [c, 2, 0, c]),
        Poly.from_roots(ring, [1, -2, 0, 5, c]),
    ]
    for n, m in ((1, 2), (2, 2), (3, 3)):
        A = _random_matrix(rng, n, m, ring, SMALL_DENOMINATORS)
        for f in polys:
            products.clear()
            got = f.at_matrix(A)
            assert len(products) == max(f.degree - 1, 0)
            assert got == poly_at_matrix_by_powers(f, A)
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
