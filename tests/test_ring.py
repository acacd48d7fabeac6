"""Exact coefficient rings: axioms, coercion, serialization."""

import random
from fractions import Fraction

import pytest

from grassmat.ring import QQ, ZZ, PrimeField, is_prime, parse_ring


# ---------------------------------------------------------------- axioms

def _axiom_check(ring, elems):
    for a in elems:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        for b in elems:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            for c in elems:
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c)
                )


def test_axioms_prime_fields_exhaustive():
    for p in (2, 3, 5, 7):
        ring = PrimeField(p)
        _axiom_check(ring, list(range(p)))


def test_axioms_integers_sampled():
    rng = random.Random(7)
    elems = [rng.randint(-9, 9) for _ in range(6)]
    _axiom_check(ZZ, elems)


def test_axioms_rationals_sampled():
    rng = random.Random(11)
    elems = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
    _axiom_check(QQ, elems)


def test_sub_and_power():
    F7 = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert F7.sub(a, b) == (a - b) % 7
        assert F7.power(a, 3) == pow(a, 3, 7)
    assert ZZ.sub(5, 9) == -4
    assert ZZ.power(2, 10) == 1024
    assert QQ.power(Fraction(1, 2), 3) == Fraction(1, 8)


def test_embed_is_homomorphism():
    for ring in (ZZ, QQ, PrimeField(5), PrimeField(31)):
        for x in range(-6, 7):
            for y in range(-6, 7):
                assert ring.embed(x + y) == ring.add(ring.embed(x), ring.embed(y))
                assert ring.embed(x * y) == ring.mul(ring.embed(x), ring.embed(y))


# ---------------------------------------------------------------- coercion

def test_coerce_rules():
    assert ZZ.coerce(5) == 5
    assert ZZ.coerce(Fraction(4, 2)) == 2
    with pytest.raises(TypeError):
        ZZ.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        ZZ.coerce(1.5)
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    F5 = PrimeField(5)
    assert F5.coerce(-1) == 4
    assert F5.coerce(12) == 2
    with pytest.raises(TypeError):
        F5.coerce(Fraction(1, 2))


def test_clean_terms_drops_zeros():
    F5 = PrimeField(5)
    terms = {0: 5, 1: 3, 3: 10}
    cleaned = F5.clean_terms(dict(terms))
    assert cleaned == {1: 3}
    assert ZZ.clean_terms({0: 0, 2: 4}) == {2: 4}


# ---------------------------------------------------------------- factorial

def test_factorial_integers():
    assert ZZ.factorial(0) == 1
    assert ZZ.factorial(6) == 720
    assert QQ.factorial(4) == Fraction(24)


def test_factorial_prime_field_vanishes_at_p():
    for p in (2, 3, 5, 7):
        ring = PrimeField(p)
        for k in range(0, p):
            assert not ring.is_zero(ring.factorial(k))
        for k in range(p, p + 3):
            assert ring.is_zero(ring.factorial(k))


# ---------------------------------------------------------------- strings

def test_format_parse_round_trip():
    cases = [
        (ZZ, [-7, 0, 13]),
        (QQ, [Fraction(-3, 7), Fraction(0), Fraction(22, 5)]),
        (PrimeField(11), [0, 1, 10]),
    ]
    for ring, vals in cases:
        for v in vals:
            assert ring.parse(ring.format(v)) == v


def test_rational_parse_fraction_syntax():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.parse("-1.25") == Fraction(-5, 4)


def test_rational_parse_refuses_exponent_notation():
    # Fraction("1e10000000") alone takes seconds: it builds the power of ten first
    for s in ("1e5", "2E-3", "1.5e2", "1e1000000000"):
        with pytest.raises(ValueError, match="exponent notation"):
            QQ.parse(s)


def test_parse_ring_strings():
    assert parse_ring("int") is ZZ
    assert parse_ring("rat") is QQ
    F7 = parse_ring("zmod:7")
    assert F7 == PrimeField(7)
    assert F7.name == "zmod:7"


def test_parse_ring_rejects_bad_strings():
    for bad in ("foo", "zmod:4", "zmod:x", "zmod:", "zmod:-3"):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_prime_field_requires_prime():
    for bad in (0, 1, 4, 9, -5):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def test_ring_equality_and_hash():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert ZZ != QQ
    assert hash(PrimeField(7)) == hash(PrimeField(7))
    assert len({ZZ, QQ, PrimeField(3), PrimeField(3)}) == 3
