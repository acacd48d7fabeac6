"""Alternating-sum evaluators: naive, DP, block-product, Young subgroups."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from grassmat.errors import (
    ContextMismatchError,
    DegreeTooLargeError,
    GroupTooLargeError,
    LengthMismatchError,
)
from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.harness import atoms
from grassmat import identities
from grassmat.identities import (
    YoungSpec,
    capelli_dp,
    capelli_naive,
    perm_sign,
    standard_dp,
    standard_naive,
    standard_product_eval,
    young_alternating_sum,
)
from grassmat.ring import QQ, ZZ, PrimeField

from oracles import full_layer_capelli_dp, full_layer_standard_dp


def unit(r, s, n=2, m=2, ring=ZZ):
    return GrMatrix.unit(n, m, ring, r, s)


def gen(i, m=2, ring=ZZ):
    return GrassmannElem.generator(i, m, ring)


def _random_matrix(rng, n, m, ring, terms=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            e = GrassmannElem.zero(m, ring)
            for _ in range(terms):
                mask = rng.randrange(1 << m)
                e = e + GrassmannElem.basis(mask, m, ring).scale(
                    ring.embed(rng.randint(-3, 3))
                )
            row.append(e)
        rows.append(row)
    return GrMatrix(rows)


# ------------------------------------------------------------ perm sign

def test_perm_sign_small():
    assert perm_sign((0,)) == 1
    assert perm_sign((0, 1)) == 1
    assert perm_sign((1, 0)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((2, 1, 0)) == -1


def test_perm_sign_is_multiplicative():
    rng = random.Random(1)
    for _ in range(20):
        p = tuple(rng.sample(range(5), 5))
        q = tuple(rng.sample(range(5), 5))
        pq = tuple(p[q[i]] for i in range(5))
        assert perm_sign(pq) == perm_sign(p) * perm_sign(q)


# ------------------------------------------------------------ standard

def test_standard_k1_k2():
    rng = random.Random(2)
    A = _random_matrix(rng, 2, 2, ZZ)
    B = _random_matrix(rng, 2, 2, ZZ)
    assert standard_naive([A]) == A
    assert standard_naive([A, B]) == A * B - B * A


def test_standard_frozen_s3_units():
    # s_3(e12, e22, e21) = e11 + 2 e22 over scalar 2x2 units.
    got = standard_naive([unit(1, 2, m=0), unit(2, 2, m=0), unit(2, 1, m=0)])
    want = unit(1, 1, m=0) + unit(2, 2, m=0).scale_coeff(2)
    assert got == want
    assert standard_dp([unit(1, 2, m=0), unit(2, 2, m=0), unit(2, 1, m=0)]) == want


def test_standard_repeated_argument_vanishes():
    rng = random.Random(3)
    A = _random_matrix(rng, 2, 2, ZZ)
    B = _random_matrix(rng, 2, 2, ZZ)
    for mats in ([A, A], [A, B, A], [A, B, B]):
        assert standard_naive(mats).is_zero()
        assert standard_dp(mats).is_zero()


def test_standard_multilinear():
    rng = random.Random(4)
    A, B, C, D = (_random_matrix(rng, 2, 2, QQ) for _ in range(4))
    left = standard_naive([A + B, C, D])
    assert left == standard_naive([A, C, D]) + standard_naive([B, C, D])
    scaled = standard_naive([A.scale_coeff(3), C, D])
    assert scaled == standard_naive([A, C, D]).scale_coeff(3)


def test_standard_antisymmetric_under_swap():
    rng = random.Random(5)
    A, B, C = (_random_matrix(rng, 2, 2, ZZ) for _ in range(3))
    base = standard_naive([A, B, C])
    assert standard_naive([B, A, C]) == -base
    assert standard_naive([A, C, B]) == -base


def test_standard_dp_matches_naive_random():
    rng = random.Random(6)
    for ring in (ZZ, PrimeField(7)):
        for k in range(1, 6):
            mats = [_random_matrix(rng, 2, 2, ring) for _ in range(k)]
            assert standard_dp(mats) == standard_naive(mats)


def test_standard_guards():
    mats9 = [unit(1, 1)] * 9
    with pytest.raises(DegreeTooLargeError):
        standard_naive(mats9)
    with pytest.raises(DegreeTooLargeError):
        standard_dp([unit(1, 1)] * 25)
    with pytest.raises(LengthMismatchError):
        standard_naive([])
    with pytest.raises(ContextMismatchError):
        standard_naive([unit(1, 1, n=2), unit(1, 1, n=3)])


# ------------------------------------------------------------ capelli

def test_capelli_with_identity_ys_is_standard():
    rng = random.Random(7)
    for k in (2, 3, 4):
        xs = [_random_matrix(rng, 2, 2, ZZ) for _ in range(k)]
        ys = [GrMatrix.identity(2, 2, ZZ) for _ in range(k + 1)]
        assert capelli_naive(xs, ys) == standard_naive(xs)
        assert capelli_dp(xs, ys) == standard_dp(xs)


def test_capelli_dp_matches_naive_random():
    rng = random.Random(8)
    for ring in (ZZ, PrimeField(7)):
        for k in range(1, 5):
            xs = [_random_matrix(rng, 2, 2, ring) for _ in range(k)]
            ys = [_random_matrix(rng, 2, 2, ring, terms=1) for _ in range(k + 1)]
            assert capelli_dp(xs, ys) == capelli_naive(xs, ys)


def test_capelli_frozen_interleaved():
    # d_2(x1, x2; y0, y1, y2) = y0 x1 y1 x2 y2 - y0 x2 y1 x1 y2.
    rng = random.Random(9)
    x1, x2 = (_random_matrix(rng, 2, 2, ZZ) for _ in range(2))
    y0, y1, y2 = (_random_matrix(rng, 2, 2, ZZ) for _ in range(3))
    got = capelli_naive([x1, x2], [y0, y1, y2])
    want = y0 * x1 * y1 * x2 * y2 - y0 * x2 * y1 * x1 * y2
    assert got == want


def test_capelli_length_guard():
    xs = [unit(1, 1), unit(2, 2)]
    ys = [GrMatrix.identity(2, 2, ZZ)] * 2
    with pytest.raises(LengthMismatchError):
        capelli_naive(xs, ys)
    with pytest.raises(LengthMismatchError):
        capelli_dp(xs, ys)
    with pytest.raises(DegreeTooLargeError):
        capelli_dp([unit(1, 1)] * 21, [GrMatrix.identity(2, 2, ZZ)] * 22)


# ------------------------------------------------------------ sparse DP paths

DP_RINGS = (ZZ, QQ, PrimeField(2), PrimeField(7))


def _assert_canonical(value, n, m, ring):
    """The DP result lives in the inputs' context and stores no zeros."""
    assert (value.n, value.m, value.ring) == (n, m, ring)
    for row in value.rows:
        for e in row:
            for c in e.terms.values():
                assert c != 0
                if isinstance(ring, PrimeField):
                    assert 0 <= c < ring.modulus


def _dp_matches_naive(xs, ys):
    """Cross-check both DPs; returns how many of the two values are nonzero."""
    first = xs[0]
    n, m, ring = first.n, first.m, first.ring
    std = standard_dp(xs)
    assert std == standard_naive(xs)
    _assert_canonical(std, n, m, ring)
    cap = capelli_dp(xs, ys)
    assert cap == capelli_naive(xs, ys)
    _assert_canonical(cap, n, m, ring)
    return (not std.is_zero()) + (not cap.is_zero())


def test_dp_matches_naive_on_atoms():
    # Atom tuples leave almost every DP state zero.  The small points are
    # walked exhaustively, the rest sampled; the y's are degree-0 units or
    # the identity, so many Capelli values are nonzero.
    rng = random.Random(12)
    nonzero = 0
    for ring in DP_RINGS:
        for n in (1, 2, 3):
            for m in range(5):
                pool = atoms(n, m, ring)
                ys_pool = [GrMatrix.identity(n, m, ring)] + [
                    GrMatrix.unit(n, m, ring, r, c)
                    for r in range(1, n + 1)
                    for c in range(1, n + 1)
                ]
                if (n, m) in ((2, 1), (3, 0)):
                    tuples = [list(t) for k in (3, 4) for t in combinations(pool, k)]
                else:
                    tuples = [[rng.choice(pool) for _ in range(k)] for k in (2, 4, 6)]
                for xs in tuples:
                    ys = [rng.choice(ys_pool) for _ in range(len(xs) + 1)]
                    nonzero += _dp_matches_naive(xs, ys)
    assert nonzero > 100


def test_dp_matches_naive_with_a_zero_matrix():
    rng = random.Random(13)
    for ring in DP_RINGS:
        for n, m, k in ((1, 2, 3), (2, 3, 4), (3, 1, 3)):
            xs = [_random_matrix(rng, n, m, ring) for _ in range(k)]
            ys = [_random_matrix(rng, n, m, ring, terms=1) for _ in range(k + 1)]
            zero = GrMatrix.zero(n, m, ring)
            for pos in (0, k - 1):
                _dp_matches_naive(xs[:pos] + [zero] + xs[pos + 1 :], ys)
            for pos in (0, k // 2, k):
                zys = ys[:pos] + [zero] + ys[pos + 1 :]
                value = capelli_dp(xs, zys)
                assert value == capelli_naive(xs, zys) == zero


def test_dp_repeated_arguments_cancel_to_zero():
    # Equal arguments cancel layer by layer; the result is still a zero
    # matrix in the inputs' context.
    rng = random.Random(14)
    for ring in DP_RINGS:
        for n, m in ((1, 0), (2, 2), (3, 4)):
            A = _random_matrix(rng, n, m, ring)
            B = _random_matrix(rng, n, m, ring)
            zero = GrMatrix.zero(n, m, ring)
            ys = [GrMatrix.identity(n, m, ring)] * 5
            for xs in ([A, A], [A, A, A, A], [A, B, A], [B, A, B, A]):
                ys_k = ys[: len(xs) + 1]
                assert standard_dp(xs) == standard_naive(xs) == zero
                assert capelli_dp(xs, ys_k) == capelli_naive(xs, ys_k) == zero


def test_dp_matches_naive_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(
        ring=st.sampled_from(DP_RINGS),
        n=st.integers(1, 3),
        m=st.integers(0, 4),
        k=st.integers(1, 5),
        terms=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(ring, n, m, k, terms, seed):
        rng = random.Random(seed)
        xs = [_random_matrix(rng, n, m, ring, terms) for _ in range(k)]
        ys = [_random_matrix(rng, n, m, ring, 1) for _ in range(k + 1)]
        _dp_matches_naive(xs, ys)

    check()


# s_k != 0 on these atom tuples at k = 7..11, past the naive cap from 9 on:
# (r, s, g) is the unit e_rs, times v_g when g > 0, then s_k over ZZ
KNOWN_NONZERO = [
    (3, 2, [(1, 2, 0), (2, 3, 0), (3, 3, 0), (3, 2, 0), (2, 1, 0), (1, 1, 1), (1, 1, 2)],
     "[[2*v1v2, 0, 0]; [0, 4*v1v2, 0]; [0, 0, 4*v1v2]]"),
    (3, 2, [(1, 1, 0), (1, 2, 0), (1, 3, 0), (2, 1, 0), (2, 2, 0), (2, 3, 0), (1, 1, 1),
            (3, 1, 2)], "4*v1v2*e23"),
    (3, 2, [(1, 3, 0), (2, 1, 0), (2, 3, 1), (3, 3, 0), (2, 3, 0), (3, 2, 0), (3, 1, 2),
            (1, 2, 0), (2, 2, 0)], "-12*v1v2*e23"),
    (3, 4, [(1, 1, 2), (2, 3, 3), (3, 3, 0), (2, 2, 0), (1, 1, 1), (3, 1, 0), (3, 2, 0),
            (2, 3, 0), (1, 2, 0), (1, 2, 4)], "-16*v1v2v3v4*e12"),
    (3, 4, [(2, 3, 0), (2, 1, 0), (1, 1, 0), (2, 2, 0), (2, 2, 1), (3, 2, 0), (2, 2, 4),
            (3, 1, 0), (1, 3, 2), (2, 2, 3), (3, 3, 0)], "48*v1v2v3v4*e21"),
]


def _atom(n, m, ring, r, s, g):
    A = GrMatrix.unit(n, m, ring, r, s)
    return A.scale(gen(g, m, ring)) if g else A


def _reduced_atoms(rng, n, m, ring, k):
    """k atoms: distinct degree-0 units and t units times v1..vt, shuffled."""
    units = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
    t = rng.randint(max(0, k - len(units)), min(m, k))
    mats = [_atom(n, m, ring, r, s, 0) for r, s in rng.sample(units, k - t)]
    mats += [_atom(n, m, ring, *rng.choice(units), g) for g in range(1, t + 1)]
    rng.shuffle(mats)
    return mats


def _join_matches_full_layers(xs):
    first = xs[0]
    value = standard_dp(xs)
    assert value == full_layer_standard_dp(xs)
    _assert_canonical(value, first.n, first.m, first.ring)
    return value


def test_standard_dp_join_matches_full_layers():
    # The join at k/2 against every suffix layer, past the naive cap, for
    # odd and even k: dense and atom tuples, a repeated argument and a
    # zero matrix (both give zero), and the known nonzero atom tuples.
    rng = random.Random(15)
    nonzero = set()
    for ring in DP_RINGS:
        for k in range(1, 14):
            n, m = [(1, 4), (2, 2), (3, 1)][k % 3] if k <= 4 else (3, 2) if k <= 8 else (2, 1)
            dense = [_random_matrix(rng, n, m, ring, 1 + (k <= 4)) for _ in range(k)]
            atom = _reduced_atoms(rng, 3, 4, ring, k)
            for xs in (dense, atom):
                if not _join_matches_full_layers(xs).is_zero():
                    nonzero.add(k)
            vanishing = [dense[: k // 2] + [GrMatrix.zero(n, m, ring)] + dense[k // 2 + 1 :]]
            if k > 1:
                vanishing += [dense[:-1] + dense[:1], atom[:-1] + atom[:1]]
            for xs in vanishing:
                assert _join_matches_full_layers(xs).is_zero()
        for n, m, spec, expected in KNOWN_NONZERO:
            value = _join_matches_full_layers([_atom(n, m, ring, *a) for a in spec])
            if ring in (ZZ, QQ):
                assert value.compact_str() == expected
            if not value.is_zero():
                nonzero.add(len(spec))
    assert nonzero == set(range(1, 12))


# ------------------------------------------------------------ packed integer DP

WIDE_RINGS = (ZZ, QQ, PrimeField(2), PrimeField(7), PrimeField(1000003))


def _wide_coeff(rng, ring):
    """Coefficients that stress the digit width: ints near 2^62, rationals
    with denominators up to 12, and residues over the whole field."""
    if ring == ZZ:
        return rng.choice((1, -1)) * (2**62 - rng.randrange(10))
    if ring == QQ:
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 12))
    return rng.randrange(1, ring.modulus)


def _wide_matrix(rng, n, m, ring, kind):
    if kind == "zero":
        return GrMatrix.zero(n, m, ring)
    if kind == "atom":
        r, c = rng.randint(1, n), rng.randint(1, n)
        e = GrassmannElem.basis(rng.randrange(1 << m), m, ring).scale(_wide_coeff(rng, ring))
        return GrMatrix.unit(n, m, ring, r, c).scale(e)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            e = GrassmannElem.zero(m, ring)
            for _ in range(rng.randint(0, 2)):
                mask = rng.randrange(1 << m)
                e = e + GrassmannElem.basis(mask, m, ring).scale(_wide_coeff(rng, ring))
            row.append(e)
        rows.append(row)
    return GrMatrix(rows)


def _wide_tuples(seed, count):
    """(xs, ys) over every ring of WIDE_RINGS: dense matrices, atoms and the
    odd zero matrix, n <= 3, m <= 4, odd and even k up to 10.  Dense
    tuples stop at k = 6, where the full-layer oracle stays cheap."""
    rng = random.Random(seed)
    for j in range(count):
        ring = WIDE_RINGS[j % len(WIDE_RINGS)]
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        k = rng.randint(1, 10 if j % 3 else 6)
        kinds = ["atom"] if k > 6 else ["dense", "atom"]
        weights = None if k > 6 else [3, 2]

        def draw():
            if rng.random() < 0.03:
                return _wide_matrix(rng, n, m, ring, "zero")
            return _wide_matrix(rng, n, m, ring, rng.choices(kinds, weights)[0])

        xs = [draw() for _ in range(k)]
        ys = [GrMatrix.identity(n, m, ring) if rng.random() < 0.3 else draw() for _ in range(k + 1)]
        yield xs, ys


def test_packed_dp_matches_dict_oracle_and_naive():
    # The packed integer kernel against the n*n-dict DP on the rings' own
    # values (every k) and against the k! oracle (k <= 6).
    compared = nonzero = 0
    for xs, ys in _wide_tuples(21, 400):
        k, first = len(xs), xs[0]
        n, m, ring = first.n, first.m, first.ring
        std = standard_dp(xs)
        assert std == full_layer_standard_dp(xs)
        _assert_canonical(std, n, m, ring)
        compared += 1
        nonzero += not std.is_zero()
        if k <= 6:
            assert std == standard_naive(xs)
        cap = capelli_dp(xs, ys)
        assert cap == full_layer_capelli_dp(xs, ys)
        _assert_canonical(cap, n, m, ring)
        nonzero += not cap.is_zero()
        if k <= 6:
            assert cap == capelli_naive(xs, ys)
        compared += 1
    assert compared == 800
    assert nonzero > 150


def _exact_layers(monkeypatch, evaluate, *args):
    """Run evaluate with _operands and _dp_transition wrapped: returns the
    digit width, the integer factors the DP ran on (as ZZ matrices) and a
    copy of every layer _dp_transition returned."""
    seen = {}
    layers = []
    operands, transition = identities._operands, identities._dp_transition

    def spy_operands(mats, k, products):
        ops, width, den = operands(mats, k, products)
        n, m = mats[0].n, mats[0].m
        seen["width"] = width
        seen["mats"] = [
            GrMatrix([[GrassmannElem._make(m, ZZ, dict(x.flat[r * n + t] or {})) for t in range(n)]
                      for r in range(n)])
            for x in ops
        ]
        return ops, width, den

    def spy_transition(xs, layer, k):
        out = transition(xs, layer, k)
        layers.append({mask: dict(state) for mask, state in out.items()})
        return out

    monkeypatch.setattr(identities, "_operands", spy_operands)
    monkeypatch.setattr(identities, "_dp_transition", spy_transition)
    evaluate(*args)
    monkeypatch.undo()
    return seen["width"], seen["mats"], layers


def _assert_packs(state, expected, width):
    """Every digit of the exact h(S) is below 2^(W-1), and the packed
    state holds exactly those digits."""
    n, m = expected.n, expected.m
    packed = {}
    for r, row in enumerate(expected.rows):
        for c, e in enumerate(row):
            for u, d in e.terms.items():
                assert abs(d) < 1 << (width - 1)
                key = (r << m) | u
                packed[key] = packed.get(key, 0) + (d << (width * c))
    assert state == {key: P for key, P in packed.items() if P}


def test_dp_digits_stay_below_half_the_width(monkeypatch):
    # Each layer _dp_transition returns is checked against h(S) computed
    # over ZZ from the DP's own integer factors by the k! oracle, so a
    # digit that overflowed its field would show as a mismatch.
    rng = random.Random(22)
    checked = 0
    for ring in WIDE_RINGS:
        for n, m, k in ((1, 3, 6), (2, 2, 5), (3, 1, 4), (2, 1, 6)):
            xs = [_wide_matrix(rng, n, m, ring, "dense") for _ in range(k)]
            ys = [_wide_matrix(rng, n, m, ring, "dense") for _ in range(k + 1)]
            width, mats, layers = _exact_layers(monkeypatch, standard_dp, xs)
            for layer in layers:
                for mask, state in layer.items():
                    sub = [mats[i] for i in range(k) if mask >> i & 1]
                    _assert_packs(state, standard_naive(sub), width)
                    checked += 1
            width, mats, layers = _exact_layers(monkeypatch, capelli_dp, xs, ys)
            one = GrMatrix.identity(n, m, ZZ)
            for s, layer in enumerate(layers, 1):
                for mask, state in layer.items():
                    sub = [mats[i] for i in range(k) if mask >> i & 1]
                    # before y_{k-s} is premultiplied: x y_{k-s+1} ... x y_k
                    _assert_packs(state, capelli_naive(sub, [one] + mats[2 * k + 1 - s :]), width)
                    checked += 1
    assert checked > 500


# ------------------------------------------------------------ product eval

def test_standard_product_eval_matches_manual_blocks():
    rng = random.Random(10)
    n, m = 2, 2
    blocks = m // 2 + 1
    mats = [_random_matrix(rng, n, m, ZZ) for _ in range(2 * n * blocks)]
    got = standard_product_eval(mats)
    want = standard_dp(mats[:4]) * standard_dp(mats[4:])
    assert got == want


def test_standard_product_eval_length_guard():
    rng = random.Random(11)
    mats = [_random_matrix(rng, 2, 2, ZZ) for _ in range(5)]
    with pytest.raises(LengthMismatchError):
        standard_product_eval(mats)


# ------------------------------------------------------------ young sums

def test_young_spec_validation():
    with pytest.raises(ValueError):
        YoungSpec(k=3, classes=((1, 2),))
    with pytest.raises(ValueError):
        YoungSpec(k=2, classes=((1, 1), (2,)))
    with pytest.raises(ValueError):
        YoungSpec(k=2, classes=((1, 2),), anticommuting=frozenset({3}))
    with pytest.raises(ValueError):
        YoungSpec.from_interval_sizes([2, 0])


def test_young_spec_interval_shape():
    spec = YoungSpec.from_interval_sizes([3, 2])
    assert spec.k == 5
    assert spec.classes == ((1, 2, 3), (4, 5))
    assert spec.anticommuting == frozenset({2, 3, 5})
    assert spec.central_positions() == frozenset({1, 4})
    assert spec.one_central_per_class()
    assert spec.group_order() == 12


def test_young_singletons_give_plain_product():
    spec = YoungSpec(k=3, classes=((1,), (2,), (3,)))
    a = gen(1).scale(2)
    b = GrassmannElem.scalar(3, 2, ZZ)
    c = gen(2)
    assert young_alternating_sum([a, b, c], spec) == a * b * c


def test_young_full_class_is_standard_sum():
    spec = YoungSpec(k=3, classes=((1, 2, 3),), anticommuting=frozenset({2, 3}))
    mats = [unit(1, 2, m=0), unit(2, 2, m=0), unit(2, 1, m=0)]
    got = young_alternating_sum(mats, spec)
    assert got == standard_naive(mats)


def test_young_frozen_interval_factorial():
    # One class of size 3, position 1 central: with values 5 e11,
    # v1 e11, v2 e11 the sum collapses to 2! * product = 10 (v1v2) e11.
    spec = YoungSpec.from_interval_sizes([3])
    m = 2
    e11 = GrMatrix.unit(1, m, ZZ, 1, 1)
    mats = [e11.scale_coeff(5), e11.scale(gen(1, m)), e11.scale(gen(2, m))]
    got = young_alternating_sum(mats, spec)
    want = e11.scale(gen(1, m) * gen(2, m)).scale_coeff(10)
    assert got == want


def test_young_all_anticommuting_values_collapse_to_group_order():
    # Generators at every position: each term carries sign(pi)^2 = 1,
    # so the sum is |S_3| times the product.  The one-central-per-class
    # hypothesis is violated here, so the factorial form does not apply.
    spec = YoungSpec.from_interval_sizes([3])
    m = 3
    e11 = GrMatrix.unit(1, m, ZZ, 1, 1)
    mats = [e11.scale(gen(i, m)) for i in (1, 2, 3)]
    got = young_alternating_sum(mats, spec)
    v123 = gen(1, m) * gen(2, m) * gen(3, m)
    assert got == e11.scale(v123).scale_coeff(6)


def test_young_two_anticommuting_in_one_class_vanishes():
    # Class {1,2} with both positions anticommuting values: sum is
    # v1v2 - v2v1 = 2 v1v2, NOT zero; with one central it IS zero only
    # when the anticommuting value repeats a generator.  The vanishing
    # statement needs one central per class; check the k=2 instance
    # a1 = v1, a2 = v1 (same generator): v1v1 - v1v1 = 0 trivially, and
    # the mixed instance a1 = c (central), a2 = v1: c v1 - v1 c = 0.
    spec = YoungSpec(k=2, classes=((1, 2),), anticommuting=frozenset({2}))
    c = GrassmannElem.scalar(5, 2, ZZ)
    v1 = gen(1)
    got = young_alternating_sum([c, v1], spec)
    assert got.is_zero()


def test_young_group_order_cap():
    spec = YoungSpec.from_interval_sizes([4])
    elems = [gen(1, 4)] * 4
    with pytest.raises(GroupTooLargeError):
        young_alternating_sum(elems, spec, max_order=6)


def test_young_length_and_type_guards():
    spec = YoungSpec(k=2, classes=((1,), (2,)))
    with pytest.raises(LengthMismatchError):
        young_alternating_sum([gen(1)], spec)
    with pytest.raises(TypeError):
        young_alternating_sum([gen(1), unit(1, 1)], spec)
    with pytest.raises(TypeError):
        young_alternating_sum([1, 2], spec)


def test_young_matches_brute_force_symmetric_group():
    # Single class of size k with distinct matrices: the Young sum over
    # the full symmetric group is the standard alternating sum.
    rng = random.Random(13)
    for k in (2, 3, 4):
        spec = YoungSpec(
            k=k,
            classes=(tuple(range(1, k + 1)),),
            anticommuting=frozenset(range(2, k + 1)),
        )
        mats = [_random_matrix(rng, 2, 2, ZZ) for _ in range(k)]
        assert young_alternating_sum(mats, spec) == standard_naive(mats)
