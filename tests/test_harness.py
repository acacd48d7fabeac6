"""Campaign harness: seeding, generators, verifiers, search, replay."""

from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest
from oracles import brute_force_open_search

from grassmat import harness
from grassmat.errors import (
    BadCharacteristicError,
    DegenerateLambdasError,
    DegreeTooLargeError,
    HypothesisViolationError,
    LengthMismatchError,
)
from grassmat.gmatrix import GrMatrix, matrices_to_json
from grassmat.grassmann import GrassmannElem
from grassmat.harness import (
    Campaign,
    TARGETS,
    degrees_for,
    replay_reproducer,
    run_campaign,
    search_open_question,
    verify_amitsur_levitzki,
    verify_capelli_bound,
    verify_lemma2,
    verify_standard_bounds,
    verify_theorem1,
    verify_young_lemma,
)
from grassmat.identities import standard_dp, standard_naive
from grassmat.sampling import (
    atoms,
    random_coeff,
    random_degree1_grmatrix,
    random_grmatrix,
    splitmix64,
    trial_rng,
)
from grassmat.poly import Poly
from grassmat.report import (
    COUNTEREXAMPLE_FOUND,
    FAIL,
    NO_COUNTEREXAMPLE_IN_BUDGET,
    PASS,
)
from grassmat.ring import QQ, ZZ, PrimeField
from grassmat.witnesses import WitnessSpec, capelli_witness, ch_witness, standard_witness


def gen(i, m, ring=ZZ):
    return GrassmannElem.generator(i, m, ring)


# ------------------------------------------------------------ seeding

def test_splitmix64_frozen_values():
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(2**64 - 1) == 16490336266968443936


def test_trial_rng_deterministic_and_stream_separated():
    a = [trial_rng(0, 0).randrange(100) for _ in range(3)]
    b = [trial_rng(0, 0).randrange(100) for _ in range(3)]
    assert a == b
    r = trial_rng(0, 0)
    assert [r.randrange(100) for _ in range(3)] == [84, 5, 11]
    r2 = trial_rng(42, 7)
    assert [r2.randrange(100) for _ in range(3)] == [19, 14, 35]
    assert trial_rng(0, 0).randrange(10**9) != trial_rng(0, 1).randrange(10**9)
    assert trial_rng(0, 0).randrange(10**9) != trial_rng(1, 0).randrange(10**9)


def test_random_coeff_never_zero():
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(7)):
        rng = trial_rng(3, 0)
        for _ in range(50):
            assert not ring.is_zero(ring.coerce(random_coeff(rng, ring)))


def test_random_grmatrix_sparsity_zero_and_determinism():
    Z = random_grmatrix(trial_rng(1, 0), 2, 3, ZZ, 0)
    assert Z.is_zero()
    A = random_grmatrix(trial_rng(5, 2), 2, 3, ZZ, 2)
    B = random_grmatrix(trial_rng(5, 2), 2, 3, ZZ, 2)
    assert A == B


def test_random_grmatrix_golden_snapshot():
    A = random_grmatrix(trial_rng(42, 0), 2, 3, PrimeField(7), 2)
    assert A.to_json() == {
        "n": 2,
        "m": 3,
        "ring": "zmod:7",
        "entries": [
            [[[2, "4"], [4, "2"]], [[7, "5"]]],
            [[[1, "2"], [7, "6"]], [[2, "5"], [3, "4"]]],
        ],
    }


def test_random_degree1_matrix_is_degree_one():
    A = random_degree1_grmatrix(trial_rng(2, 0), 2, 3, QQ, 2)
    for r in range(1, 3):
        for s in range(1, 3):
            e = A.entry(r, s)
            assert e.degrees() in ((), (1,))
    assert random_degree1_grmatrix(trial_rng(2, 0), 2, 0, QQ, 2).is_zero()


# ------------------------------------------------------------ structure

def test_degrees_for_frozen():
    assert degrees_for(2, 4) == {
        "ch_exponent": 3,
        "capelli_x_degree": 9,
        "standard_degree": 8,
        "standard_product_degree": 12,
        "open_question_degree": 8,
        "witness_degree": 7,
    }
    assert degrees_for(1, 0)["ch_exponent"] == 1
    assert degrees_for(1, 0)["witness_degree"] == 1


def test_atoms_order_and_count():
    pool = atoms(2, 2, ZZ)
    assert len(pool) == 4 * 4
    assert pool[0].compact_str() == "e11"
    assert pool[1].compact_str() == "v1*e11"
    assert pool[3].compact_str() == "v1v2*e11"
    assert pool[4].compact_str() == "e12"
    assert pool[15].compact_str() == "v1v2*e22"


def test_atom_reduction_of_multilinear_sum():
    # s_2 on sums of two atoms equals the sum of s_2 over the four
    # atom choices; multilinearity is what the structured trials lean on.
    pool = atoms(2, 2, ZZ)
    A = pool[1] + pool[6]
    B = pool[3] + pool[12]
    whole = standard_naive([A, B])
    parts = GrMatrix.zero(2, 2, ZZ)
    for x in (pool[1], pool[6]):
        for y in (pool[3], pool[12]):
            parts = parts + standard_naive([x, y])
    assert whole == parts


def test_campaign_validation_and_to_dict():
    with pytest.raises(ValueError):
        Campaign(target="NotATarget")
    c = Campaign(target="Theorem1", n=2, m=4, ring=PrimeField(7), trials=3, seed=9)
    assert c.to_dict() == {
        "target": "Theorem1",
        "n": 2,
        "m": 4,
        "ring": "zmod:7",
        "trials": 3,
        "seed": 9,
    }
    o = Campaign(target="OpenQuestion", n=1, m=2, budget=50, random_samples=5)
    d = o.to_dict()
    assert d["budget"] == 50 and d["random_samples"] == 5
    assert "trials" not in d  # the search draws no trials
    l = Campaign(target="Lemma2", ring=QQ, exploratory=True, lambdas=(0, 1))
    d2 = l.to_dict()
    assert d2["exploratory"] is True and d2["lambdas"] == ["0", "1"]


# ------------------------------------------------------------ verifiers

def test_theorem1_pass_and_control():
    rep = verify_theorem1(Campaign(target="Theorem1", n=2, m=2, ring=ZZ, trials=5))
    assert rep.verdict == PASS
    assert rep.find("exponent") == 2
    assert rep.find("control_lower_exponent_nonzero") is True
    # The witness control needs a field, so over int it runs over rat.
    assert rep.find("control_ring") == "rat"
    assert rep.trials == 5
    assert rep.reproducer is None


def test_theorem1_field_control_stays_native():
    rep = verify_theorem1(
        Campaign(target="Theorem1", n=2, m=2, ring=PrimeField(7), trials=3)
    )
    assert rep.verdict == PASS
    assert rep.find("control_ring") is None


def test_lemma2_pass_over_field():
    rep = verify_lemma2(Campaign(target="Lemma2", n=2, m=3, ring=QQ, trials=5))
    assert rep.verdict == PASS
    assert rep.find("control_degree1_part_nonzero") is True


def test_lemma2_requires_field():
    with pytest.raises(BadCharacteristicError):
        verify_lemma2(Campaign(target="Lemma2", n=2, m=2, ring=ZZ, trials=1))


def test_lemma2_degenerate_lambdas():
    with pytest.raises(DegenerateLambdasError):
        verify_lemma2(
            Campaign(target="Lemma2", n=2, m=2, ring=QQ, trials=1, lambdas=(1, 1))
        )
    # A field with fewer elements than eigenvalues cannot separate them.
    with pytest.raises(DegenerateLambdasError):
        verify_lemma2(
            Campaign(target="Lemma2", n=3, m=2, ring=PrimeField(2), trials=1)
        )


def test_lemma2_checks_fixed_lambdas_before_the_first_trial(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a trial before checking the eigenvalues")

    monkeypatch.setattr(harness, "random_degree1_grmatrix", no_draw)
    with pytest.raises(LengthMismatchError, match="need 2 eigenvalues, got 3"):
        verify_lemma2(Campaign(target="Lemma2", n=2, ring=QQ, lambdas=(1, 2, 3)))
    with pytest.raises(DegenerateLambdasError, match="fixed eigenvalues must be distinct"):
        verify_lemma2(Campaign(target="Lemma2", n=2, ring=PrimeField(3), lambdas=(1, 4)))


def test_lemma2_exploratory_records_observations():
    rep = verify_lemma2(
        Campaign(target="Lemma2", n=2, m=2, ring=QQ, trials=3, exploratory=True)
    )
    assert rep.verdict == PASS
    obs = rep.find("exploratory_full_matrix_observations")
    assert isinstance(obs, list) and len(obs) == 3


def test_young_lemma_pass():
    rep = verify_young_lemma(
        Campaign(target="YoungLemma", n=1, m=3, ring=ZZ, trials=5)
    )
    assert rep.verdict == PASS
    assert rep.find("shapes_per_size") == 20
    assert rep.find("odd_shapes_zero") == 100
    assert rep.find("interval_shapes_factored") > 0
    assert rep.find("control_singleton_identity_product") is True


def test_young_lemma_rank_zero_skips_odd_shapes():
    rep = verify_young_lemma(Campaign(target="YoungLemma", n=1, m=0, ring=ZZ, trials=5))
    assert rep.verdict == PASS
    assert rep.find("odd_shapes_skipped_no_generators") is True


def test_capelli_bound_pass_with_naive_cross_check():
    rep = verify_capelli_bound(
        Campaign(target="CapelliBound", n=1, m=2, ring=ZZ, trials=3, structured=5)
    )
    assert rep.verdict == PASS
    assert rep.find("x_degree") == 1 + 2 + 1
    assert rep.find("naive_cross_check") is True
    assert rep.find("structured_trials_zero") == 5
    assert rep.find("control_lower_degree_nonzero") is True
    assert rep.find("control_witness_degree") == 3


def test_capelli_bound_control_ring_fallback():
    # p = 2 fails the witness gate at m = 4, so the control runs over rat.
    rep = verify_capelli_bound(
        Campaign(target="CapelliBound", n=1, m=4, ring=PrimeField(2), trials=2, structured=2)
    )
    assert rep.verdict == PASS
    assert rep.find("control_ring") == "rat"


def test_standard_corollary_pass():
    rep = verify_standard_bounds(
        Campaign(target="StandardCorollary", n=1, m=2, ring=ZZ, trials=3, structured=5)
    )
    assert rep.verdict == PASS
    assert rep.find("degree") == 4
    assert rep.find("comparison_degree") == 4
    assert rep.find("corollary_naive_cross_check") is True
    assert rep.find("control_lower_degree_nonzero") is True


def test_standard_product_pass():
    rep = verify_standard_bounds(
        Campaign(target="StandardProduct", n=1, m=2, ring=ZZ, trials=4)
    )
    assert rep.verdict == PASS
    assert rep.find("degree") == 4
    assert rep.find("blocks") == 2


def test_filtration2_pass():
    rep = verify_standard_bounds(
        Campaign(target="Filtration2", n=2, m=2, ring=ZZ, trials=3)
    )
    assert rep.verdict == PASS
    assert rep.find("block_degree") == 4
    assert rep.find("blocks_in_filtration_2") == 3
    assert rep.find("control_staircase_outside_filtration") is True


def test_amitsur_levitzki_pass():
    rep = verify_amitsur_levitzki(
        Campaign(target="AmitsurLevitzki", n=2, m=0, ring=ZZ, trials=4)
    )
    assert rep.verdict == PASS
    assert rep.find("degree") == 4
    assert rep.find("control_staircase_degree") == 3
    assert rep.find("control_lower_degree_nonzero") is True


def test_run_campaign_dispatch_matches_direct_call():
    camp = Campaign(target="Theorem1", n=1, m=2, ring=ZZ, trials=2)
    a = run_campaign(camp).to_dict(include_elapsed=False)
    b = verify_theorem1(camp).to_dict(include_elapsed=False)
    assert a == b


def test_run_campaign_sharpness_targets():
    rep = run_campaign(Campaign(target="CHSharpness", n=2, m=2, ring=QQ))
    assert rep.verdict == PASS
    rep2 = run_campaign(Campaign(target="CapelliSharpness", n=1, m=2, ring=QQ))
    assert rep2.verdict == PASS
    rep3 = run_campaign(Campaign(target="StandardSharpness", n=1, m=2, ring=QQ))
    assert rep3.verdict == PASS
    with pytest.raises(BadCharacteristicError):
        run_campaign(Campaign(target="CHSharpness", n=2, m=4, ring=PrimeField(2)))


def test_campaign_reports_are_deterministic():
    for target in ("Theorem1", "YoungLemma", "CapelliBound", "StandardCorollary"):
        camp = dict(target=target, n=1, m=2, ring=ZZ, trials=3, structured=3)
        a = run_campaign(Campaign(**camp)).to_dict(include_elapsed=False)
        b = run_campaign(Campaign(**camp)).to_dict(include_elapsed=False)
        assert a == b


def test_all_targets_runnable_small():
    for target in TARGETS:
        ring = QQ if target in ("Lemma2", "CHSharpness", "CapelliSharpness", "StandardSharpness") else ZZ
        camp = Campaign(
            target=target, n=1, m=2, ring=ring, trials=2, structured=2, budget=10
        )
        rep = run_campaign(camp)
        assert rep.verdict in (PASS, NO_COUNTEREXAMPLE_IN_BUDGET)


# ------------------------------------------------------------ hypothesis guard

def test_young_hypothesis_violation_raises():
    from grassmat.harness import _young_hypothesis_check
    from grassmat.identities import YoungSpec

    e11 = GrMatrix.unit(1, 2, ZZ, 1, 1)
    v1e11 = e11.scale(gen(1, 2))
    spec = YoungSpec(k=2, classes=((1, 2),), anticommuting=frozenset({1, 2}))
    with pytest.raises(HypothesisViolationError):
        # Position 2 holds a central value but is declared anticommuting.
        _young_hypothesis_check([v1e11, e11], spec)


# ------------------------------------------------------------ open search

def test_open_search_exhausts_tiny_grid():
    rep = search_open_question(Campaign(target="OpenQuestion", n=1, m=2, ring=ZZ))
    assert rep.verdict == NO_COUNTEREXAMPLE_IN_BUDGET
    assert rep.find("exhausted") is True
    assert rep.find("degree") == 4
    assert rep.find("atoms") == 4
    # The single 4-subset repeats generators across masks, so it is
    # provably zero and the prune may skip it.
    assert rep.find("tuples_considered") == 1
    assert rep.find("tuples_pruned") == 1
    assert rep.find("tuples_evaluated") == 0


def test_open_search_budget_cuts_off():
    rep = search_open_question(
        Campaign(target="OpenQuestion", n=2, m=2, ring=ZZ, budget=5)
    )
    assert rep.verdict == NO_COUNTEREXAMPLE_IN_BUDGET
    assert rep.find("exhausted") is False
    assert rep.find("tuples_considered") == 5


def test_open_search_random_samples_recorded():
    rep = search_open_question(
        Campaign(
            target="OpenQuestion", n=1, m=2, ring=ZZ, budget=1, random_samples=3
        )
    )
    assert rep.find("random_samples") == 3
    assert rep.verdict == NO_COUNTEREXAMPLE_IN_BUDGET


def test_open_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        search_open_question(Campaign(target="OpenQuestion", n=1, m=2, budget=0))


def _fail_at(call):
    """standard_dp that returns a nonzero matrix on its call-th call."""
    real, calls = harness.standard_dp, [0]

    def evaluate(mats, *args, **kw):
        calls[0] += 1
        if calls[0] == call:
            first = mats[0]
            return GrMatrix.unit(first.n, first.m, first.ring, 1, 1)
        return real(mats, *args, **kw)

    return evaluate


def _open_budgets(n, m):
    total = n * n << m
    tuples = comb(total, degrees_for(n, m)["open_question_degree"])
    near = (tuples - 1, tuples, tuples + 1) if tuples <= 5000 else ()
    return sorted({b for b in (1, 2, 7) + near if b > 0})


@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_open_search_matches_brute_force_walk(monkeypatch, n, m):
    # The block-skipping walk must report exactly what the flat walk over
    # combinations() reports: counts, exhaustion, first counterexample.
    for budget in _open_budgets(n, m):
        for fail in (None, 1, 3):
            reports = []
            for search in (brute_force_open_search, search_open_question):
                if fail is not None:
                    monkeypatch.setattr(harness, "standard_dp", _fail_at(fail))
                campaign = Campaign(target="OpenQuestion", n=n, m=m, ring=ZZ, budget=budget)
                reports.append(search(campaign).to_json(include_elapsed=False))
                monkeypatch.undo()
            assert reports[0] == reports[1], (budget, fail)


@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)])
def test_open_search_pruned_tuples_are_zero(n, m):
    # The walk counts a tuple whose atom masks overlap as zero without
    # evaluating it; evaluate every such tuple and check that it is.
    pool = atoms(n, m, ZZ)
    k = degrees_for(n, m)["open_question_degree"]
    w = 1 << m  # atom i has mask i % w
    overlapping = 0
    for combo in combinations(range(len(pool)), k):
        masks = [i % w for i in combo]
        if sum(map(int.bit_count, masks)) != reduce(or_, masks).bit_count():
            overlapping += 1
            assert standard_dp([pool[i] for i in combo]).is_zero(), combo
    # and these are exactly the tuples an exhaustive walk skips
    budget = max(1, comb(len(pool), k))
    rep = search_open_question(Campaign(target="OpenQuestion", n=n, m=m, budget=budget))
    assert rep.find("exhausted") is True
    assert rep.find("tuples_pruned") == overlapping


# ------------------------------------------------------------ replay

def test_replay_power_zero_pass_and_fail():
    spec = WitnessSpec("ch", 2, 4, QQ)
    W = ch_witness(spec)
    base = {
        "target": "Theorem1",
        "check": "power_zero",
        "lambdas": ["0", "1"],
        "matrix": W.to_json(),
    }
    ok = replay_reproducer({**base, "exponent": 3})
    assert ok.verdict == PASS
    assert ok.reproducer is None
    bad = replay_reproducer({**base, "exponent": 2})
    assert bad.verdict == FAIL
    assert bad.reproducer == {**base, "exponent": 2}
    assert bad.campaign == {"target": "Theorem1", "replay": True, "check": "power_zero"}


def test_replay_power_nonzero():
    spec = WitnessSpec("ch", 2, 4, QQ)
    W = ch_witness(spec)
    rep = replay_reproducer(
        {
            "target": "Theorem1",
            "check": "power_nonzero",
            "exponent": 2,
            "lambdas": ["0", "1"],
            "matrix": W.to_json(),
        }
    )
    assert rep.verdict == PASS


def test_replay_lemma2_frozen():
    m = 2
    v1, v2 = gen(1, m, QQ), gen(2, m, QQ)
    z = GrassmannElem.zero(m, QQ)
    A = GrMatrix(
        [
            [v1, v2],
            [z, GrassmannElem.scalar(1, m, QQ) + v1],
        ]
    )
    rep = replay_reproducer(
        {
            "target": "Lemma2",
            "check": "lemma2",
            "lambdas": ["0", "1"],
            "matrix": A.to_json(),
        }
    )
    assert rep.verdict == PASS
    assert rep.find("degree0_vanishes") is True
    assert rep.find("degree1_squares_to_zero") is True


def test_replay_young_zero_and_factorial():
    e11 = GrMatrix.unit(1, 3, ZZ, 1, 1)
    elems = [e11.scale_coeff(2), e11.scale(gen(1, 3)), e11.scale(gen(2, 3))]
    zero_rep = replay_reproducer(
        {
            "target": "YoungLemma",
            "check": "young",
            "expect": "zero",
            "classes": [[1, 2], [3]],
            "anticommuting": [2, 3],
            "elems": matrices_to_json(elems),
        }
    )
    assert zero_rep.verdict == PASS
    fact_rep = replay_reproducer(
        {
            "target": "YoungLemma",
            "check": "young",
            "expect": "factorial",
            "classes": [[1, 2, 3]],
            "anticommuting": [2, 3],
            "elems": matrices_to_json(elems),
        }
    )
    assert fact_rep.verdict == PASS
    assert fact_rep.find("factorial_form_matches") is True


def test_replay_capelli_both_directions():
    spec = WitnessSpec("capelli", 1, 2, QQ)
    xs, ys = capelli_witness(spec)
    data = {
        "target": "CapelliBound",
        "xs": matrices_to_json(xs),
        "ys": matrices_to_json(ys),
    }
    nz = replay_reproducer({**data, "check": "capelli_nonzero"})
    assert nz.verdict == PASS
    z = replay_reproducer({**data, "check": "capelli_zero"})
    assert z.verdict == FAIL
    assert z.find("value_is_zero") is False


def test_replay_standard_both_directions():
    mats = standard_witness(1, 2, QQ)
    data = {"target": "StandardCorollary", "mats": matrices_to_json(mats)}
    nz = replay_reproducer({**data, "check": "standard_nonzero"})
    assert nz.verdict == PASS
    z = replay_reproducer({**data, "check": "standard_zero"})
    assert z.verdict == FAIL
    assert z.find("value") == "2*v1v2*e11"


def test_replay_open_question_counterexample_verdict():
    # A nonzero standard_zero replay under the open-question target is
    # labeled a counterexample, not a plain failure.
    mats = standard_witness(1, 2, QQ)
    rep = replay_reproducer(
        {
            "target": "OpenQuestion",
            "check": "standard_zero",
            "mats": matrices_to_json(mats),
        }
    )
    assert rep.verdict == COUNTEREXAMPLE_FOUND


def test_replay_filtration_and_product():
    v1e = GrMatrix.unit(1, 2, ZZ, 1, 1).scale(gen(1, 2))
    v2e = GrMatrix.unit(1, 2, ZZ, 1, 1).scale(gen(2, 2))
    f = replay_reproducer(
        {
            "target": "Filtration2",
            "check": "filtration2",
            "mats": matrices_to_json([v1e, v2e]),
        }
    )
    assert f.verdict == PASS
    e = GrMatrix.unit(1, 2, ZZ, 1, 1)
    p = replay_reproducer(
        {
            "target": "StandardProduct",
            "check": "product_zero",
            "mats": matrices_to_json([v1e, e, v2e, e]),
        }
    )
    assert p.verdict == PASS


def test_replay_honours_dp_degree_guard():
    # Each DP check refuses a reproducer past the degree guard before
    # doing any work; the default guard is the campaign's.
    e25 = matrices_to_json([GrMatrix.unit(1, 0, ZZ, 1, 1)] * 25)
    for target, check in (
        ("StandardCorollary", "standard_zero"),
        ("Filtration2", "filtration2"),
    ):
        with pytest.raises(DegreeTooLargeError):
            replay_reproducer({"target": target, "check": check, "mats": e25})
    e26 = matrices_to_json([GrMatrix.unit(1, 0, ZZ, 1, 1)] * 26)
    with pytest.raises(DegreeTooLargeError):
        replay_reproducer(
            {"target": "CapelliBound", "check": "capelli_zero", "xs": e25, "ys": e26}
        )
    e4 = matrices_to_json([GrMatrix.unit(1, 2, ZZ, 1, 1)] * 4)
    with pytest.raises(DegreeTooLargeError):
        replay_reproducer(
            {"target": "StandardProduct", "check": "product_zero", "mats": e4},
            max_dp_k=1,
        )
    mats = matrices_to_json(standard_witness(1, 2, QQ))
    data = {"target": "StandardCorollary", "check": "standard_nonzero", "mats": mats}
    with pytest.raises(DegreeTooLargeError):
        replay_reproducer(data, max_dp_k=len(mats) - 1)
    assert replay_reproducer(data, max_dp_k=len(mats)).verdict == PASS


def test_replay_unknown_check():
    with pytest.raises(ValueError):
        replay_reproducer({"target": "Theorem1", "check": "nope"})
