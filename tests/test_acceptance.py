"""End-to-end acceptance runs, one test per criterion.

Every criterion prints one ACCEPTANCE line (even under output capture)
with its wall time, so a plain pytest run shows the whole ledger at a
glance.  Runtimes are reported, not asserted.
"""

import json
import time
from contextlib import contextmanager
from itertools import product as iproduct

import pytest

from grassmat.gmatrix import GrMatrix
from grassmat.grassmann import GrassmannElem
from grassmat.harness import (
    Campaign,
    atoms,
    random_grmatrix,
    run_campaign,
    trial_rng,
)
from grassmat.identities import (
    capelli_dp,
    capelli_naive,
    standard_dp,
    standard_naive,
)
from grassmat.report import COUNTEREXAMPLE_FOUND, NO_COUNTEREXAMPLE_IN_BUDGET, PASS
from grassmat.ring import QQ, ZZ, PrimeField, is_prime
from grassmat.witnesses import (
    capelli_parts,
    ceil_half,
    standard_witness,
)

F7 = PrimeField(7)

# The shared verification grid: small n with the full rank range, plus
# the n = 3 corner kept to ranks the degree guards leave cheap.
GRID = [(n, m) for n in (1, 2) for m in range(6)] + [(3, 0), (3, 1), (3, 2)]


def next_prime(k):
    p = max(2, k + 1)
    while not is_prime(p):
        p += 1
    return p


def first_valid_prime(build, n, m, limit=50):
    p = 2
    while p <= limit:
        if is_prime(p):
            try:
                build(n, m, PrimeField(p))
                return PrimeField(p)
            except Exception:
                pass
        p += 1
    raise AssertionError(f"no valid prime below {limit} for {build.__name__} at ({n},{m})")


@pytest.fixture
def crit(capsys):
    @contextmanager
    def runner(label):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            dt = time.perf_counter() - t0
            with capsys.disabled():
                print(f"\nACCEPTANCE {label}: FAIL ({dt:.1f}s)")
            raise
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nACCEPTANCE {label}: PASS ({dt:.1f}s)")

    return runner


def test_c01_ch_power_vanishes(crit):
    with crit("C1 ch power, 36 campaigns, int and zmod:7"):
        for ring in (ZZ, F7):
            for n in (1, 2, 3):
                for m in range(6):
                    rep = run_campaign(
                        Campaign(
                            target="Theorem1", n=n, m=m, ring=ring, trials=50, seed=1
                        )
                    )
                    assert rep.verdict == PASS, (n, m, ring.name)
                    assert rep.find("exponent") == ceil_half(m) + 1
                    assert rep.find("control_lower_exponent_nonzero") is True, (
                        n,
                        m,
                        ring.name,
                    )


def test_c02_ch_sharpness_grid(crit):
    with crit("C2 ch sharpness over rat and smallest valid prime"):
        for n in (1, 2, 3):
            for m in range(6):
                p = next_prime(max(ceil_half(m), n - 1))
                for ring in (QQ, PrimeField(p)):
                    rep = run_campaign(Campaign(target="CHSharpness", n=n, m=m, ring=ring))
                    assert rep.verdict == PASS, (n, m, ring.name)
                    assert rep.find("exponent") == ceil_half(m) + 1
                    assert rep.find("power_zero") is True
                    assert rep.find("previous_power_nonzero") is True


def test_c03_degree_structure(crit):
    with crit("C3 degree-0/1/2 structure, 100 trials per point"):
        for n in (2, 3):
            for m in (2, 3, 4):
                rep = run_campaign(
                    Campaign(target="Lemma2", n=n, m=m, ring=QQ, trials=100, seed=1)
                )
                assert rep.verdict == PASS, (n, m)
                assert rep.find("control_degree1_part_nonzero") is True


def test_c04_young_shapes(crit):
    with crit("C4 young shapes: 20 random per size and all intervals"):
        rep = run_campaign(
            Campaign(target="YoungLemma", n=2, m=7, ring=ZZ, trials=100, seed=1)
        )
        assert rep.verdict == PASS
        assert rep.find("shapes_per_size") >= 20
        # Five sizes k = 3..7, each with its full batch of zero sums.
        assert rep.find("odd_shapes_zero") == 5 * rep.find("shapes_per_size")
        assert rep.find("interval_shapes_factored") > 0
        # Rank 7 leaves no odd interval shape of k <= 7 short of generators.
        assert rep.find("interval_shapes_skipped_for_rank") is None
        assert rep.find("control_singleton_identity_product") is True


def test_c05_capelli_bound(crit):
    with crit("C5 capelli bound, 50 random + 200 structured per point"):
        for n, m in GRID:
            rep = run_campaign(
                Campaign(
                    target="CapelliBound",
                    n=n,
                    m=m,
                    ring=F7,
                    trials=50,
                    structured=200,
                    seed=1,
                )
            )
            assert rep.verdict == PASS, (n, m)
            assert rep.find("control_lower_degree_nonzero") is True, (n, m)
        # One integer-ring spot check with the full counts.
        rep = run_campaign(
            Campaign(
                target="CapelliBound",
                n=2,
                m=2,
                ring=ZZ,
                trials=50,
                structured=200,
                seed=1,
            )
        )
        assert rep.verdict == PASS


def test_c06_capelli_sharpness(crit):
    with crit("C6 capelli sharpness grid plus worked value"):
        for n, m in GRID:
            for ring in (QQ, first_valid_prime(capelli_parts, n, m)):
                rep = run_campaign(Campaign(target="CapelliSharpness", n=n, m=m, ring=ring))
                assert rep.verdict == PASS, (n, m, ring.name)
        worked = run_campaign(Campaign(target="CapelliSharpness", n=1, m=2, ring=QQ))
        assert worked.find("value") == "2*v1v2*e11"


def test_c07_standard_bounds(crit):
    # Degrees on this grid stay at or below 12, so the k <= 12 clip
    # never actually fires; it is passed anyway as the criterion states.
    with crit("C7 standard bounds: corollary, product, filtration"):
        for n, m in GRID:
            for target in ("StandardCorollary", "StandardProduct", "Filtration2"):
                rep = run_campaign(
                    Campaign(
                        target=target,
                        n=n,
                        m=m,
                        ring=F7,
                        trials=50,
                        structured=200,
                        seed=1,
                        max_dp_k=12,
                    )
                )
                assert rep.verdict == PASS, (target, n, m)


# -- criterion 8: the literal closed form, stated exactly as given ------
#
# s_k on the witness, k = 2(n + floor(m/2)) - 1, compared against
# (2 floor(m/2))! v_1...v_w e11 as a full matrix.  The n = 1 points
# hold.  For n >= 2 the evaluated matrix provably carries extra
# diagonal terms (s3(e12, e22, e21) = e11 + 2 e22 already at m = 0), so
# those points are expected failures, marked strict so any change in
# behavior surfaces.  The true part, the (1,1) entry and nonvanishing,
# is asserted for every point in the summary test below.

def _c8_params():
    out = []
    for n, m in GRID:
        if n == 1:
            out.append(pytest.param(n, m, id=f"n{n}m{m}"))
        else:
            out.append(
                pytest.param(
                    n,
                    m,
                    id=f"n{n}m{m}",
                    marks=pytest.mark.xfail(
                        strict=True,
                        reason="full matrix carries extra diagonal terms for n >= 2",
                    ),
                )
            )
    return out


@pytest.mark.parametrize("n,m", _c8_params())
def test_c08_standard_sharpness_literal(n, m):
    mats = standard_witness(n, m, QQ)
    value = standard_dp(mats)
    w = 2 * (m // 2)
    closed = GrassmannElem.basis((1 << w) - 1, m, QQ).scale(QQ.factorial(w))
    assert value == GrMatrix.unit(n, m, QQ, 1, 1).scale(closed)


def test_c08_standard_sharpness_refined_and_summary(capsys):
    t0 = time.perf_counter()
    literal_failures = []
    for n, m in GRID:
        rings = [QQ, first_valid_prime(standard_witness, n, m)]
        for ring in rings:
            rep = run_campaign(Campaign(target="StandardSharpness", n=n, m=m, ring=ring))
            assert rep.verdict == PASS, (n, m, ring.name)
            assert rep.find("entry_11_matches_closed_form") is True, (n, m, ring.name)
            assert rep.find("nonzero") is True, (n, m, ring.name)
            if ring is QQ and rep.find("full_matrix_matches_closed_form") is False:
                literal_failures.append((n, m))
    # The literal form holds exactly at n = 1 and nowhere else over rat.
    assert literal_failures == [(n, m) for n, m in GRID if n > 1]
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE C8 standard sharpness closed form: FAIL as stated "
            f"for n >= 2 (extra diagonal terms; (1,1) entry and nonvanishing "
            f"verified on the full grid) ({dt:.1f}s)"
        )


def test_c09_oracle_equivalence(crit):
    with crit("C9 dp equals naive: exhaustive and random atom tuples"):
        # Exhaustive tuples with repetition over every atom.
        pool = atoms(1, 2, ZZ)
        for k in range(1, 6):
            for combo in iproduct(range(len(pool)), repeat=k):
                mats = [pool[i] for i in combo]
                assert standard_dp(mats) == standard_naive(mats), combo
                xs = mats
                ys = [pool[(i + 1) % len(pool)] for i in list(combo) + [0]]
                assert capelli_dp(xs, ys) == capelli_naive(xs, ys), combo
        pool = atoms(2, 1, ZZ)
        for k in range(1, 4):
            for combo in iproduct(range(len(pool)), repeat=k):
                mats = [pool[i] for i in combo]
                assert standard_dp(mats) == standard_naive(mats), combo
        # 200 random coefficient-scaled tuples, k up to 7.
        rng = trial_rng(1234, 0)
        for t in range(200):
            k = rng.randint(1, 7)
            mats = [random_grmatrix(rng, 2, 2, F7, 1) for _ in range(k)]
            assert standard_dp(mats) == standard_naive(mats), t
            xs = [random_grmatrix(rng, 2, 2, F7, 1) for _ in range(k)]
            ys = [random_grmatrix(rng, 2, 2, F7, 1) for _ in range(k + 1)]
            assert capelli_dp(xs, ys) == capelli_naive(xs, ys), t


def test_c10_open_search(crit):
    with crit("C10 open search: exhaustive small grid, budgeted (3,2)"):
        for n, m in ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 2)):
            rep = run_campaign(
                Campaign(target="OpenQuestion", n=n, m=m, ring=ZZ, seed=1)
            )
            assert rep.verdict == NO_COUNTEREXAMPLE_IN_BUDGET, (n, m)
            assert rep.find("exhausted") is True, (n, m)
        big = run_campaign(
            Campaign(target="OpenQuestion", n=3, m=2, ring=ZZ, budget=10**5, seed=1)
        )
        # Reported, not asserted: the n = 3 answer is the open part.
        assert big.verdict in (NO_COUNTEREXAMPLE_IN_BUDGET, COUNTEREXAMPLE_FOUND)
        assert big.find("tuples_considered") == 10**5


def test_c11_determinism(crit):
    with crit("C11 byte-identical reports modulo timing"):
        configs = [
            dict(target="Theorem1", n=2, m=3, ring=ZZ, trials=5, seed=3),
            dict(target="Lemma2", n=2, m=2, ring=QQ, trials=5, seed=3),
            dict(target="YoungLemma", n=1, m=3, ring=ZZ, trials=5, seed=3),
            dict(target="CapelliBound", n=1, m=2, ring=F7, trials=5, structured=5, seed=3),
            dict(target="StandardCorollary", n=1, m=2, ring=ZZ, trials=5, structured=5, seed=3),
            dict(target="StandardProduct", n=1, m=2, ring=ZZ, trials=5, seed=3),
            dict(target="Filtration2", n=2, m=2, ring=ZZ, trials=5, seed=3),
            dict(target="CHSharpness", n=2, m=2, ring=QQ),
            dict(target="CapelliSharpness", n=1, m=2, ring=QQ),
            dict(target="StandardSharpness", n=1, m=2, ring=QQ),
            dict(target="OpenQuestion", n=1, m=3, ring=ZZ, seed=3),
            dict(target="AmitsurLevitzki", n=2, m=0, ring=ZZ, trials=5, seed=3),
        ]
        for cfg in configs:
            a = run_campaign(Campaign(**cfg)).to_dict(include_elapsed=False)
            b = run_campaign(Campaign(**cfg)).to_dict(include_elapsed=False)
            ja = json.dumps(a, sort_keys=True, indent=2)
            jb = json.dumps(b, sort_keys=True, indent=2)
            assert ja == jb, cfg["target"]
