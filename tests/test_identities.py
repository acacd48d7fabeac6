"""Alternating-sum evaluators: naive, DP, block-product, Young subgroups."""

import copy
import json
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
    MixedRingsError,
)
from grassmat import gmatrix
from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.harness import _young_inputs, _young_instance, atoms
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
from grassmat.poly import Poly
from grassmat.ring import QQ, ZZ, PrimeField, parse_ring
from grassmat.sampling import random_grmatrix

from oracles import (
    capelli_by_words,
    full_layer_capelli_dp,
    full_layer_standard_dp,
    standard_by_words,
    young_by_words,
)


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


# Signs (even part, odd part) of x_1 and x_2 at the entries of the s_2
# tuple below that entry (0, 1) reads through; every other entry is +c + c v1
_S2_ALIGNED = {
    (0, 0): ((1, 1), (1, -1)),
    (0, 2): ((1, 1), (1, -1)),
    (0, 1): ((1, -1), (1, 1)),
    (2, 1): ((1, -1), (1, 1)),
    (1, 1): ((-1, -1), (-1, 1)),
}


def _aligned_tuples(ring):
    """(xs, ys) whose top digit passes 2^(W-2), so the width lemma's W is
    the least that decodes them; c = 2^62 - 1 (over 10^9 + 7 over QQ).
    s_2 at n = 3, m = 1: each of the 12 words of entry (0, 1) at v1, three
    inner indices times two splits of v1 times two orders, comes to +c^2.
    d_1 at n = 3, m = 0 with every entry c: each of the 9 words of an entry
    comes to c^3."""
    c = Fraction(2**62 - 1, 10**9 + 7) if ring == QQ else ring.coerce(2**62 - 1)

    def matrix(m, signs):
        return GrMatrix([
            [GrassmannElem._make(m, ring, {u: s * c for u, s in enumerate(signs.get((r, t), (1,) * (1 << m)))})
             for t in range(3)]
            for r in range(3)
        ])

    x1 = matrix(1, {pos: a for pos, (a, _) in _S2_ALIGNED.items()})
    x2 = matrix(1, {pos: b for pos, (_, b) in _S2_ALIGNED.items()})
    yield [x1, x2], [GrMatrix.identity(3, 1, ring)] * 3
    flat = matrix(0, {})
    yield [flat], [flat, flat]


def test_packed_dp_matches_dict_oracle_and_naive():
    # The packed integer kernel against the n*n-dict DP on the rings' own
    # values (every k) and against the k! oracle (k <= 6).
    compared = nonzero = 0
    aligned = [t for ring in (ZZ, QQ) for t in _aligned_tuples(ring)]
    for xs, ys in list(_wide_tuples(21, 400)) + aligned:
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
    assert compared == 808
    assert nonzero > 150


def _force_kernel(monkeypatch, kind):
    """Route every DP call over Z/p to one kernel, whatever its operands:
    identities._Packed or identities._Residues; other rings keep _Packed."""

    def kernel(mats, k):
        packed = identities._Packed(mats, k)
        return packed if kind is identities._Packed or packed.ring.kind != "zmod" else kind(packed, k)

    monkeypatch.setattr(identities, "_kernel", kernel)


def _over_zz(A):
    """A's integer numerators as a matrix over ZZ (its lifted operand)."""
    flat, n = gmatrix._operand(A).flat, A.n
    return GrMatrix([[GrassmannElem._make(A.m, ZZ, dict(flat[r * n + t])) for t in range(n)]
                     for r in range(n)])


def _exact_layers(monkeypatch, evaluate, *args, kind=None):
    """Run evaluate with identities._kernel and _dp_transition wrapped,
    on the kernel kind when it is given: returns the kernel, the integer
    factors the DP ran on (their operands, as ZZ matrices), a copy of
    every layer _dp_transition returned and the final state."""
    seen = {}
    layers = []
    if kind is not None:
        _force_kernel(monkeypatch, kind)
    kernel_of, transition = identities._kernel, identities._dp_transition

    def spy_kernel(mats, k):
        kernel = seen["kernel"] = kernel_of(mats, k)
        seen["mats"] = [_over_zz(A) for A in mats]
        value = kernel.value

        def spy_value(state):
            seen["final"] = state
            return value(state)

        kernel.value = spy_value
        return kernel

    def spy_transition(xs, layer, k):
        out = transition(xs, layer, k)
        layers.append({mask: copy.copy(state) for mask, state in out.items()})
        return out

    monkeypatch.setattr(identities, "_kernel", spy_kernel)
    monkeypatch.setattr(identities, "_dp_transition", spy_transition)
    evaluate(*args)
    monkeypatch.undo()
    return seen["kernel"], seen["mats"], layers, seen["final"]


def _assert_packs(state, expected, kernel):
    """The state holds exactly the exact h(S), expected over ZZ: as
    signed digits below 2^(W-1) in the packed format of gmatrix, or as
    residues in the layout of the residue kernel."""
    n, m, width = expected.n, expected.m, kernel.width
    residues = isinstance(kernel, identities._Residues)
    packed = {}
    for r, row in enumerate(expected.rows):
        for c, e in enumerate(row):
            for u, d in e.terms.items():
                if residues:
                    d %= kernel.p
                    key, shift = r, width * (u * n + c)
                else:
                    assert abs(d) < 1 << (width - 1)
                    key, shift = (r << m) | u, width * c
                packed[key] = packed.get(key, 0) + (d << shift)
    if residues:
        want = [packed.get(r, 0) for r in range(n)]
        assert (state or [0] * n) == want
    else:
        assert {key: P for key, P in (state or {}).items() if P} == {
            key: P for key, P in packed.items() if P
        }


def test_dp_digits_stay_below_half_the_width(monkeypatch):
    # Each layer _dp_transition returns, and the final state, is checked
    # against the value computed over ZZ from the DP's own integer factors
    # by the k! oracle, so a digit that overflowed its field would show as
    # a mismatch.  The aligned tuples need every bit of W.  The Z/p cases
    # run on both kernels: the signed one keeps digits over ZZ, the
    # residue one keeps every digit of a layer in [0, p).
    rng = random.Random(22)
    cases = [
        (
            [_wide_matrix(rng, n, m, ring, "dense") for _ in range(k)],
            [_wide_matrix(rng, n, m, ring, "dense") for _ in range(k + 1)],
        )
        for ring in WIDE_RINGS
        for n, m, k in ((1, 3, 6), (2, 2, 5), (3, 1, 4), (2, 1, 6))
    ]
    cases += [t for ring in (ZZ, QQ) for t in _aligned_tuples(ring)]
    checked = residue_states = 0
    for xs, ys in cases:
        k, n, m = len(xs), xs[0].n, xs[0].m
        kinds = [identities._Packed]
        if xs[0].ring.kind == "zmod":
            kinds.append(identities._Residues)
        for kind in kinds:
            kernel, mats, layers, final = _exact_layers(monkeypatch, standard_dp, xs, kind=kind)
            for layer in layers:
                for mask, state in layer.items():
                    sub = [mats[i] for i in range(k) if mask >> i & 1]
                    _assert_packs(state, standard_naive(sub), kernel)
                    checked += 1
            _assert_packs(final, standard_naive(mats), kernel)
            kernel, mats, layers, final = _exact_layers(monkeypatch, capelli_dp, xs, ys, kind=kind)
            one = GrMatrix.identity(n, m, ZZ)
            for s, layer in enumerate(layers, 1):
                for mask, state in layer.items():
                    sub = [mats[i] for i in range(k) if mask >> i & 1]
                    # before y_{k-s} is premultiplied: x y_{k-s+1} ... x y_k
                    _assert_packs(state, capelli_naive(sub, [one] + mats[2 * k + 1 - s :]), kernel)
                    checked += 1
                    residue_states += kind is identities._Residues
            _assert_packs(final, capelli_naive(mats[:k], mats[k:]), kernel)
            checked += 2
    assert checked > 900 and residue_states > 150


# ------------------------------------------------------------ residue kernel over Z/p

RESIDUE_PRIMES = (2, 3, 7, 1000003, 2**61 - 1)


def _mod(A, ring):
    """A over ZZ reduced into the field ring."""
    p = ring.modulus
    return GrMatrix([[GrassmannElem._make(A.m, ring, ring.clean_terms({u: c % p for u, c in e.terms.items()}))
                      for e in row] for row in A.rows])


def _dense(rng, n, m, ring):
    """Every entry a sum of 2^(m+1) random monomials: most masks filled."""
    return random_grmatrix(rng, n, m, ring, 2 << m)


def _agreement_tuples(rng, ring):
    """(label, xs, ys) over ring: dense, --sparsity 1 and mixed atom +
    dense tuples at n <= 3, m <= 4 and odd and even k, with a zero matrix
    or a repeated argument put into some of the dense ones."""
    shapes = ((1, 4, 7), (2, 2, 8), (2, 3, 5), (3, 0, 6), (3, 1, 7), (3, 2, 6), (2, 4, 4), (3, 4, 3))
    for n, m, k in shapes:
        pool = atoms(n, m, ring)
        draws = {
            "dense": lambda: _dense(rng, n, m, ring),
            "sparsity 1": lambda: random_grmatrix(rng, n, m, ring, 1),
        }
        for label, draw in draws.items():
            xs = [draw() for _ in range(k)]
            ys = [draw() for _ in range(k + 1)]
            yield label, xs, ys
        mixed = [_dense(rng, n, m, ring) if i % 2 else rng.choice(pool) for i in range(k)]
        yield "mixed", mixed, [GrMatrix.identity(n, m, ring)] + mixed
        if k > 1:
            yield "zero", xs[:1] + [GrMatrix.zero(n, m, ring)] + xs[2:], ys
            yield "repeated", xs[:-1] + xs[:1], ys


def _agrees_with_zz(xs, ys):
    """Both DPs on the residue kernel against the signed kernel over ZZ on
    the same integer lifts, reduced mod p; returns the values' nonzero
    count."""
    ring = xs[0].ring
    zx, zy = [_over_zz(A) for A in xs], [_over_zz(A) for A in ys]
    std, cap = standard_dp(xs), capelli_dp(xs, ys)
    assert std == _mod(standard_dp(zx), ring)
    assert cap == _mod(capelli_dp(zx, zy), ring)
    return (not std.is_zero()) + (not cap.is_zero())


def test_residue_kernel_agrees_with_the_integer_kernel(monkeypatch):
    # The residue kernel runs every tuple here, whatever the dispatch
    # would pick; the reference is the signed kernel over ZZ.
    rng = random.Random(41)
    nonzero = {}
    for p in RESIDUE_PRIMES:
        ring = PrimeField(p)
        cases = list(_agreement_tuples(rng, ring))
        cases += [("known", [_atom(n, m, ring, *a) for a in spec], None) for n, m, spec, _ in KNOWN_NONZERO]
        for label, xs, ys in cases:
            ys = ys or [GrMatrix.identity(xs[0].n, xs[0].m, ring)] * (len(xs) + 1)
            with monkeypatch.context() as patch:
                _force_kernel(patch, identities._Residues)
                count = _agrees_with_zz(xs, ys)
            nonzero[label] = nonzero.get(label, 0) + count
            # the public DPs, on whichever kernel the dispatch picks
            _agrees_with_zz(xs, ys)
    assert nonzero["dense"] > 40 and nonzero["sparsity 1"] > 15
    assert nonzero["mixed"] > 5 and nonzero["known"] > 15
    assert nonzero["zero"] == 0 and nonzero.get("repeated", 0) <= nonzero["dense"]


def test_residue_kernel_is_picked_for_factors_with_many_terms():
    # _Residues when every factor has more than (n + 1) * 2^(m-1) terms
    # over Z/p; an atom, a zero matrix or a ring of characteristic 0 keeps
    # the signed kernel.
    n, m = 3, 2
    least = (n + 1) << (m - 1)  # 8

    def terms(count, ring):
        slots = [(r, t, u) for r in range(n) for t in range(n) for u in range(1 << m)]
        rows = [[{} for _ in range(n)] for _ in range(n)]
        for r, t, u in slots[:count]:
            rows[r][t][u] = ring.one
        return GrMatrix([[GrassmannElem._make(m, ring, d) for d in row] for row in rows])

    z7 = PrimeField(7)
    pick = lambda mats: type(identities._kernel(mats, len(mats)))
    assert pick([terms(least + 1, z7)] * 3) is identities._Residues
    assert pick([terms(least + 1, z7)] * 2 + [terms(least, z7)]) is identities._Packed
    assert pick([terms(least + 1, z7), GrMatrix.unit(n, m, z7, 1, 2)]) is identities._Packed
    assert pick([terms(36, z7), GrMatrix.zero(n, m, z7)]) is identities._Packed
    for ring in (ZZ, QQ):
        assert pick([terms(36, ring)] * 2) is identities._Packed


def _aligned_residues(rng, n, m, ring, k):
    """k factors whose every coefficient is p - 1, each on a random half
    of its entry-monomial slots."""
    p = ring.modulus

    def draw():
        return GrMatrix([[GrassmannElem._make(m, ring, {u: p - 1 for u in range(1 << m) if rng.random() < 0.5})
                          for _ in range(n)] for _ in range(n)])

    return [draw() for _ in range(k)]


def test_residue_digits_stay_below_the_width(monkeypatch):
    # Every int the residue kernel reduces, pushes, premultiplied states
    # and the join's accumulator, fits its n*2^m digits of W bits, and the
    # values match the integer kernel.  On these aligned inputs the
    # largest digit comes within a factor 16 of 2^W, and on most of them
    # the join's whole sum of C(k, k/2) pair products passes 2^W in some
    # digit, so the join must reduce its accumulator as it goes, as it
    # does every k pairs.
    rng = random.Random(43)
    reduce, join = identities._Residues.reduce, identities._Residues.join
    seen = {}

    def spy_reduce(self, H):
        assert 0 <= H < 1 << (self.width * self.size)
        seen["top"] = max([seen.get("top", 0)] + self.digits(H))
        out = reduce(self, H)
        if "join" in seen:
            seen["join"].append((H, out))
        return out

    def spy_join(self, left, right, k):
        seen["join"] = []
        out = join(self, left, right, k)
        n, calls = self.n, seen.pop("join")
        # undo the reductions: the raw sum of every pair product, per digit
        total = [[0] * self.size for _ in range(n)]
        before = [0] * n
        for c, (H, out_c) in enumerate(calls):
            r = c % n
            for j, (d, e) in enumerate(zip(self.digits(H), self.digits(before[r]))):
                total[r][j] += d - e
            before[r] = out_c
        seen["join_top"] = max(max(row) for row in total)
        seen["width"] = self.width
        return out

    _force_kernel(monkeypatch, identities._Residues)
    monkeypatch.setattr(identities._Residues, "reduce", spy_reduce)
    monkeypatch.setattr(identities._Residues, "join", spy_join)
    passed = 0
    for p in RESIDUE_PRIMES:
        ring = PrimeField(p)
        for n, m, k in ((3, 1, 9), (3, 2, 8)):
            xs = _aligned_residues(rng, n, m, ring, k)
            ys = _aligned_residues(rng, n, m, ring, k + 1)
            seen.clear()
            _agrees_with_zz(xs, ys)
            width = seen["width"]
            assert seen["top"] << 4 >= 1 << width
            passed += seen["join_top"] >= 1 << width
    assert passed >= 6


# ------------------------------------------------------------ per-matrix operands

_OPERAND_RINGS = (ZZ, QQ, PrimeField(7))


def _draw(rng, n, m, ring, terms=3):
    """A random matrix whose rat coefficients carry denominators 1..4."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            acc = {}
            for _ in range(terms):
                mask = rng.randrange(1 << m)
                num = rng.randint(-5, 5)
                acc[mask] = acc.get(mask, 0) + (Fraction(num, rng.randint(1, 4)) if ring is QQ else num)
            row.append(GrassmannElem._make(m, ring, ring.clean_terms(acc)))
        rows.append(row)
    return GrMatrix(rows)


def _fresh(A):
    """An equal matrix that has never been lifted."""
    return GrMatrix.from_json(A.to_json())


def _terms_snapshot(mats):
    return [copy.deepcopy([[e.terms for e in row] for row in A.rows]) for A in mats]


@pytest.mark.parametrize("ring", _OPERAND_RINGS, ids=lambda r: r.name)
def test_each_matrix_is_lifted_once_across_calls(monkeypatch, ring):
    rng = random.Random(31)
    mats = [_draw(rng, 2, 2, ring) for _ in range(6)]
    lifted = []
    lift = type(ring).lift_terms

    def spy(self, group):
        lifted.append(len(group))
        return lift(self, group)

    monkeypatch.setattr(type(ring), "lift_terms", spy)
    for _ in range(3):
        standard_dp(mats[:4])
        standard_dp(mats[2:])
        capelli_dp(mats[:2], mats[3:6])
        mats[0] * mats[1]
        mats[5] * mats[5]
    assert lifted == [4] * len(mats)
    product = mats[0] * mats[1]  # a product keeps the operand it was decoded into
    product * mats[2]
    product.rows  # reading its entries lowers them, and the operand stays
    product * mats[3]
    standard_dp([product, mats[4]])
    assert lifted == [4] * len(mats)
    fresh = _fresh(product)  # a matrix built from entries is lifted on its first use
    fresh * mats[2]
    fresh * mats[3]
    assert lifted == [4] * (len(mats) + 1)


@pytest.mark.parametrize("ring", _OPERAND_RINGS, ids=lambda r: r.name)
def test_cached_operand_equals_a_fresh_lift(ring):
    rng = random.Random(32)
    for n, m in ((1, 2), (2, 3), (3, 2)):
        A = _draw(rng, n, m, ring)
        standard_dp([A, _draw(rng, n, m, ring)])  # fills A's table rows
        op = A._op
        assert op is not None and gmatrix._lift([A], 1)[0][0] is op
        flat, den = ring.lift_terms([e.terms for row in _fresh(A).rows for e in row])
        assert op.flat == list(flat) and op.den == den
        if ring.kind == "zmod":
            c = ring.characteristic - 1
        else:
            c = max((abs(v) for terms in flat for v in terms.values()), default=0)
        assert op.bits == c.bit_length()
        (fresh,), width, fresh_den = gmatrix._lift([_fresh(A)], 1)
        assert (fresh.flat, fresh.den, fresh.bits, fresh.live) == (op.flat, op.den, op.bits, op.live)


@pytest.mark.parametrize("ring", _OPERAND_RINGS, ids=lambda r: r.name)
def test_reused_matrices_give_the_values_of_fresh_copies(ring):
    rng = random.Random(33)
    n, m = 2, 3
    pool = [_draw(rng, n, m, ring, terms=2) for _ in range(8)]
    for trial in range(12):
        k = rng.randint(1, 6)
        xs = [rng.choice(pool) for _ in range(k)]
        if trial % 3 == 0:  # mix in factors that have not been lifted yet
            xs[rng.randrange(k)] = _draw(rng, n, m, ring, terms=2)
        ys = [rng.choice(pool) for _ in range(k + 1)]
        assert standard_dp(xs) == standard_dp([_fresh(A) for A in xs])
        assert capelli_dp(xs, ys) == capelli_dp(
            [_fresh(A) for A in xs], [_fresh(A) for A in ys]
        )
        A, B = xs[0], rng.choice(pool)
        assert A * B == _fresh(A) * _fresh(B)
        assert A * A == _fresh(A) * _fresh(A)
        assert A ** 3 == _fresh(A) ** 3


@pytest.mark.parametrize("ring", _OPERAND_RINGS, ids=lambda r: r.name)
def test_operands_leave_their_matrices_unchanged(ring):
    rng = random.Random(34)
    n, m = 2, 2
    mats = [_draw(rng, n, m, ring) for _ in range(5)]
    before = _terms_snapshot(mats)
    standard_dp(mats[:4])
    capelli_dp(mats[:2], mats[2:5])
    mats[0] * mats[1]
    mats[2] ** 3
    Poly(ring, [ring.embed(c) for c in (2, -1, 0, 1)]).at_matrix(mats[3])
    assert _terms_snapshot(mats) == before
    for A in mats:
        assert A._op is not None
        if ring is not QQ:  # the operand shares the entries' term dicts
            assert all(t is e.terms for t, e in zip(A._op.flat, (e for row in A.rows for e in row)))


def test_equality_and_json_ignore_the_operand():
    rng = random.Random(35)
    A = _draw(rng, 2, 2, QQ)
    B = _fresh(A)
    A * A
    assert A._op is not None and B._op is None
    assert A == B and B == A
    assert json.dumps(A.to_json()) == json.dumps(B.to_json())


# ------------------------------------------------------------ context checks

_CHECKED = (
    ("standard_dp", lambda mats: standard_dp(mats)),
    ("standard_naive", lambda mats: standard_naive(mats)),
    ("capelli_dp", lambda mats: capelli_dp(mats[:1], mats[1:])),
    ("young_alternating_sum", lambda mats: young_alternating_sum(
        mats, YoungSpec(k=len(mats), classes=(tuple(range(1, len(mats) + 1)),)))),
)


@pytest.mark.parametrize("evaluate", [e for _, e in _CHECKED], ids=[name for name, _ in _CHECKED])
def test_context_check_errors_are_unchanged(evaluate):
    z7 = PrimeField(7)
    A = GrMatrix.identity(2, 2, z7)
    cases = (
        ("not a matrix", TypeError, "expected GrMatrix, got str"),
        (GrMatrix.identity(2, 2, ZZ), MixedRingsError, "rings differ: zmod:7 vs int"),
        (GrMatrix.identity(3, 2, z7), ContextMismatchError,
         "contexts differ: (n=2, m=2) vs (n=3, m=2)"),
        (GrMatrix.identity(2, 3, z7), ContextMismatchError,
         "contexts differ: (n=2, m=2) vs (n=2, m=3)"),
    )
    for bad, error, message in cases:
        with pytest.raises(error) as info:
            evaluate([A, A, bad])
        assert str(info.value) == message


def test_context_check_passes_equal_ring_objects():
    r1, r2 = parse_ring("zmod:7"), parse_ring("zmod:7")
    assert r1 is not r2 and r1 == r2
    xs = [GrMatrix.unit(2, 1, r1, 1, 2), GrMatrix.unit(2, 1, r2, 2, 1)]
    assert standard_dp(xs) == standard_naive(xs) == GrMatrix.diag(
        [GrassmannElem.scalar(1, 1, r1), GrassmannElem.scalar(-1, 1, r1)]
    )
    ys = [GrMatrix.identity(2, 1, r2)] * 3
    assert capelli_dp(xs, ys) == standard_dp(xs)


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


def test_young_empty_operand_list_is_refused():
    # k = 0 is a valid spec, but with no operand there is no context to
    # build the sum in; it used to fail with IndexError on elems[0]
    with pytest.raises(LengthMismatchError, match="at least one operand"):
        young_alternating_sum([], YoungSpec(k=0, classes=()))


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


# ------------------------------------------------------------ one word enumerator

ENUM_RINGS = (ZZ, QQ, PrimeField(5))


def _enumerator_tuples(seed):
    """(rng, xs) for each ring and k <= 6: a dense tuple, a draw from the
    atom pool (repeats allowed) and a reduced atom tuple."""
    rng = random.Random(seed)
    for ring in ENUM_RINGS:
        for k in range(1, 7):
            n, m = rng.randint(1, 3), rng.randint(0, 3)
            yield rng, [_random_matrix(rng, n, m, ring) for _ in range(k)]
            yield rng, rng.choices(atoms(n, m, ring), k=k)
            yield rng, _reduced_atoms(rng, 3, 3, ring, k)


def test_naive_enumerator_matches_word_loop():
    # standard_naive and capelli_naive (random ys) against the loop that
    # multiplies out every word on its own.
    nonzero = 0
    for rng, xs in _enumerator_tuples(31):
        first = xs[0]
        std = standard_naive(xs)
        assert std == standard_by_words(xs)
        ys = [_random_matrix(rng, first.n, first.m, first.ring) for _ in range(len(xs) + 1)]
        cap = capelli_naive(xs, ys)
        assert cap == capelli_by_words(xs, ys)
        nonzero += (not std.is_zero()) + (not cap.is_zero())
    assert nonzero > 40


def test_young_enumerator_matches_word_loop():
    # young_alternating_sum against the per-class product of permutations:
    # the campaign's odd shapes and interval shapes, on their own elements,
    # on random matrices and on random bare elements.
    rng = random.Random(32)
    nonzero = 0
    for ring in ENUM_RINGS:
        n, m = 2, 4
        cases = []
        for k in range(2, 7):
            t = rng.randint(1, min(k - 1, m))
            cases.append(_young_instance(rng, k, t, n, m, ring))
        for sizes in ((1, 2), (3, 1), (2, 2, 1), (1, 3, 2), (4,), (2, 4), (5, 1)):
            spec = YoungSpec.from_interval_sizes(sizes)
            central = lambda e11: e11  # noqa: E731
            cases.append(
                _young_inputs(spec.classes, spec.anticommuting, n, m, ring, central, "factorial")
            )
        for case in cases:
            classes = case["classes"]
            spec = YoungSpec(k=len(case["elems"]), classes=classes)
            zero = GrMatrix.zero(n, m, ring)
            dense = [_random_matrix(rng, n, m, ring) for _ in range(spec.k)]
            for elems in (case["elems"], dense):
                value = young_alternating_sum(elems, spec)
                assert value == young_by_words(elems, spec.classes, zero)
                nonzero += not value.is_zero()
            bare = [GrassmannElem.generator(rng.randint(1, m), m, ring) for _ in range(spec.k)]
            bare[0] = bare[0] + GrassmannElem.scalar(2, m, ring)
            value = young_alternating_sum(bare, spec)
            assert value == young_by_words(bare, spec.classes, GrassmannElem.zero(m, ring))
    assert nonzero > 20


def test_standard_naive_shares_prefix_products(monkeypatch):
    # Every entry has a positive degree-0 part, so no prefix is zero and
    # each prefix of length d >= 2 costs one product: the sum over d of
    # 5!/(5 - d)! is 320, where multiplying out each word costs 5! * 4.
    rng = random.Random(33)
    one = GrassmannElem.one(2, ZZ)
    mats = [
        GrMatrix([[one.scale(rng.randint(1, 3)) + gen(rng.randint(1, 2)) for _ in range(2)]
                  for _ in range(2)])
        for _ in range(5)
    ]
    calls = []
    mul = GrMatrix.__mul__
    monkeypatch.setattr(GrMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    value = standard_naive(mats)
    assert len(calls) == sum(math.perm(5, d) for d in range(2, 6)) == 320
    monkeypatch.undo()
    assert value == standard_by_words(mats) != GrMatrix.zero(2, 2, ZZ)
