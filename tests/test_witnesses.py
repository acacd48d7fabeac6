"""Sharpness witnesses: construction, validation, frozen values."""

import math
from fractions import Fraction

import pytest

from grassmat.errors import (
    BadCharacteristicError,
    BadPartitionError,
    DuplicateLambdasError,
    LengthMismatchError,
)
from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.harness import Campaign, run_campaign
from grassmat.identities import capelli_dp, standard_dp
from grassmat.report import PASS
from grassmat.ring import QQ, ZZ, PrimeField
from grassmat.witnesses import (
    capelli_inputs,
    capelli_parts,
    ceil_half,
    ch_inputs,
    ch_lambdas,
    ch_nilpotent,
    staircase_units,
    standard_witness,
)


def gen(i, m, ring=QQ):
    return GrassmannElem.generator(i, m, ring)


def sharp(target, n, m, ring=QQ, **kw):
    """The report of one sharpness campaign."""
    return run_campaign(Campaign(target=target, n=n, m=m, ring=ring, **kw))


# ------------------------------------------------------------ parameter checks

def test_spec_requires_field():
    with pytest.raises(BadCharacteristicError):
        ch_lambdas(2, 2, ZZ)
    with pytest.raises(BadCharacteristicError):
        capelli_parts(2, 2, ZZ)
    with pytest.raises(BadCharacteristicError):
        standard_witness(2, 2, ZZ)


def test_witnesses_reject_bad_n():
    with pytest.raises(ValueError):
        ch_lambdas(0, 2, QQ)
    with pytest.raises(ValueError):
        capelli_parts(0, 2, QQ)
    with pytest.raises(ValueError):
        standard_witness(0, 2, QQ)


def test_ch_characteristic_gate():
    # Exponent arithmetic needs p > ceil(m/2).
    with pytest.raises(BadCharacteristicError):
        ch_lambdas(1, 4, PrimeField(2))
    ch_lambdas(1, 4, PrimeField(3))
    with pytest.raises(BadCharacteristicError):
        ch_lambdas(1, 6, PrimeField(3))
    ch_lambdas(2, 6, PrimeField(5))


def test_ch_lambda_validation():
    with pytest.raises(DuplicateLambdasError):
        ch_lambdas(2, 2, QQ, (1, 1))
    with pytest.raises(LengthMismatchError):
        ch_lambdas(2, 2, QQ, (1,))
    # Default lambdas 0..n-1 collide mod small p.
    with pytest.raises(DuplicateLambdasError):
        ch_lambdas(4, 2, PrimeField(3))
    assert ch_lambdas(2, 2, QQ, (Fraction(1, 2), 3)) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(DuplicateLambdasError):
        ch_inputs(2, 2, QQ, (1, 1))


def test_capelli_parts_validation():
    with pytest.raises(BadPartitionError):
        capelli_parts(1, 2, QQ, (1,))
    with pytest.raises(BadPartitionError):
        capelli_parts(1, 2, QQ, (4,))
    with pytest.raises(BadPartitionError):
        capelli_parts(2, 2, QQ, (2, 0, 0))
    with pytest.raises(BadCharacteristicError):
        capelli_parts(1, 8, PrimeField(7), (8,))
    assert capelli_parts(1, 4, QQ, (4,)) == (4,)
    with pytest.raises(BadPartitionError):
        capelli_inputs(1, 2, QQ, (4,))


def test_capelli_default_parts_split_below_characteristic():
    # Default packs everything into one unit over the rationals.
    assert capelli_parts(2, 4, QQ) == (4, 0, 0, 0)
    # Over F3 parts must stay even and below 3, so chunks of 2.
    assert capelli_parts(2, 4, PrimeField(3)) == (
        2,
        2,
        0,
        0,
    )


def test_standard_characteristic_gate():
    with pytest.raises(BadCharacteristicError):
        standard_witness(2, 2, PrimeField(2))
    standard_witness(2, 2, PrimeField(3))
    with pytest.raises(BadCharacteristicError):
        standard_witness(2, 4, PrimeField(3))


def test_spec_to_dict():
    d = run_campaign(Campaign(target="CHSharpness", n=2, m=2, ring=QQ)).campaign
    assert d == {
        "target": "CHSharpness", "kind": "ch", "n": 2, "m": 2, "ring": "rat", "lambdas": ["0", "1"]
    }
    d2 = run_campaign(Campaign(target="CapelliSharpness", n=1, m=2, ring=QQ)).campaign
    assert d2["kind"] == "capelli"
    assert d2["parts"] == [2]
    d3 = run_campaign(Campaign(target="StandardSharpness", n=1, m=2, ring=QQ)).campaign
    assert d3 == {"target": "StandardSharpness", "kind": "standard", "n": 1, "m": 2, "ring": "rat"}


# ------------------------------------------------------------ nilpotent part

def test_ch_nilpotent_structure():
    for m in range(0, 7):
        v = ch_nilpotent(m, QQ)
        c = ceil_half(m)
        top = GrassmannElem.from_terms(
            m, QQ, [(tuple(range(1, m + 1)), math.factorial(c))]
        )
        assert v**c == top
        assert (v ** (c + 1)).is_zero()


# ------------------------------------------------------------ ch witness

def test_ch_witness_shape():
    A = ch_inputs(2, 4, QQ)["matrix"]
    v = ch_nilpotent(4, QQ)
    assert A.entry(1, 1) == v
    assert A.entry(2, 2) == GrassmannElem.scalar(1, 4, QQ) + v
    assert A.entry(1, 2).is_zero()


def test_ch_sharpness_report_frozen():
    rep = sharp("CHSharpness", 2, 4)
    assert rep.verdict == PASS
    assert rep.find("exponent") == 3
    assert rep.find("power_zero") is True
    assert rep.find("previous_power_nonzero") is True
    assert rep.find("nilpotent_power_is_top_monomial") is True
    # g_i(A) has diagonal entry v^c * f'(lambda_i)^(c+1); for lambdas
    # (0,1) and c = 2 that is -2 v1v2v3v4 at i=1 and +2 v1v2v3v4 at i=2.
    g1 = rep.find("separating_poly_1")
    g2 = rep.find("separating_poly_2")
    assert g1["nonzero"] and g1["matches"]
    assert g2["nonzero"] and g2["matches"]
    assert g1["diag_entry"] == "-2*v1v2v3v4"
    assert g2["diag_entry"] == "2*v1v2v3v4"


def test_ch_sharpness_small_prime_field():
    rep = sharp("CHSharpness", 2, 4, PrimeField(3))
    assert rep.verdict == PASS


def test_ch_sharpness_m_zero():
    # Rank 0: A is diagonal scalar, f(A) = 0, exponent 1.
    rep = sharp("CHSharpness", 3, 0)
    assert rep.verdict == PASS
    assert rep.find("exponent") == 1


# ------------------------------------------------------------ capelli witness

def test_capelli_witness_counts():
    # x-degree n^2 + 2*floor(m/2): the largest k the bound leaves alive.
    inputs = capelli_inputs(2, 2, QQ)
    xs, ys = inputs["xs"], inputs["ys"]
    k = 2 * 2 + 2 * (2 // 2)
    assert len(xs) == k
    assert len(ys) == k + 1


def test_capelli_witness_value_frozen_1x1():
    # n=1, m=2: d_k collapses to 2 v1v2 e11.
    rep = sharp("CapelliSharpness", 1, 2)
    assert rep.verdict == PASS
    assert rep.find("x_degree") == 1 + 2
    assert rep.find("value") == "2*v1v2*e11"
    assert rep.find("nonzero") is True
    assert rep.find("matches_factored_form") is True
    assert rep.find("naive_cross_check") is True


def test_capelli_witness_value_frozen_1x1_rank4_f5():
    rep = sharp("CapelliSharpness", 1, 4, PrimeField(5), parts=(4,))
    assert rep.verdict == PASS
    # 4! = 24 = 4 mod 5.
    assert rep.find("value") == "4*v1v2v3v4*e11"
    assert rep.find("factorial_product") == "4"


def test_capelli_witness_value_frozen_2x2():
    rep = sharp("CapelliSharpness", 2, 2)
    assert rep.verdict == PASS
    assert rep.find("x_degree") == 6
    assert rep.find("value") == "2*v1v2*e11"


def test_capelli_witness_direct_evaluation_agrees():
    inputs = capelli_inputs(1, 2, QQ)
    got = capelli_dp(inputs["xs"], inputs["ys"])
    e11 = GrMatrix.unit(1, 2, QQ, 1, 1)
    assert got == e11.scale(gen(1, 2) * gen(2, 2)).scale_coeff(2)


def test_capelli_zero_parts_detail():
    rep = sharp("CapelliSharpness", 2, 2)
    assert rep.find("zero_parts_used") is True
    assert rep.find("parts") == [2, 0, 0, 0]


# ------------------------------------------------------------ standard witness

def test_staircase_units_shape():
    assert [M.compact_str() for M in staircase_units(2, 2, QQ)] == [
        "e12",
        "e22",
        "e21",
    ]
    assert [M.compact_str() for M in staircase_units(1, 2, QQ)] == ["e11"]
    assert [M.compact_str() for M in staircase_units(3, 0, QQ)] == [
        "e12",
        "e23",
        "e33",
        "e32",
        "e21",
    ]


def test_standard_witness_length():
    # 2n - 1 staircase units plus 2*floor(m/2) generator matrices.
    for n, m in ((1, 2), (2, 2), (3, 4)):
        mats = standard_witness(n, m, QQ)
        assert len(mats) == 2 * (n + m // 2) - 1


def test_standard_sharpness_frozen_1x1():
    rep = sharp("StandardSharpness", 1, 2)
    assert rep.verdict == PASS
    assert rep.find("degree") == 2 * (1 + 1) - 1
    assert rep.find("entry_11") == "2*v1v2"
    assert rep.find("entry_11_matches_closed_form") is True
    assert rep.find("full_matrix_matches_closed_form") is True
    assert rep.find("nonzero") is True


def test_standard_sharpness_frozen_2x2_rank_0():
    # Scalar case: s_3 over the staircase gives e11 + 2 e22, so only the
    # (1,1) entry matches the closed form.
    rep = sharp("StandardSharpness", 2, 0)
    assert rep.verdict == PASS
    assert rep.find("entry_11") == "1"
    assert rep.find("entry_11_matches_closed_form") is True
    assert rep.find("full_matrix_matches_closed_form") is False


def test_standard_sharpness_frozen_2x2():
    rep = sharp("StandardSharpness", 2, 2)
    assert rep.verdict == PASS
    assert rep.find("degree") == 2 * (2 + 1) - 1
    assert rep.find("entry_11") == "2*v1v2"
    assert rep.find("full_matrix_matches_closed_form") is False
    # The extra diagonal terms are recorded, not hidden.
    assert "4*v1v2" in rep.find("value")


def test_standard_sharpness_field_gate():
    with pytest.raises(BadCharacteristicError):
        sharp("StandardSharpness", 2, 2, PrimeField(2))


def test_standard_witness_direct_evaluation():
    mats = standard_witness(1, 2, QQ)
    got = standard_dp(mats)
    e11 = GrMatrix.unit(1, 2, QQ, 1, 1)
    assert got == e11.scale(gen(1, 2) * gen(2, 2)).scale_coeff(2)
