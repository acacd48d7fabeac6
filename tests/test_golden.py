"""Golden reports: campaigns, forced failures and replays, byte for byte.

Each case builds one Report.  Its canonical JSON without elapsed_ms must
equal tests/golden/<case>.json exactly, so a change in a verdict, a
detail name or its order, a reproducer, or a random draw (a Python
release that changes `random` included) fails here.

A forced failure patches one evaluator name inside grassmat.harness so
that a campaign emits the reproducer of one check; every check a
campaign can emit has one.  The round-trip tests replay each of those
reproducers with the evaluator still patched (the failure reproduces)
and restored (the stored inputs satisfy the identity).

Rewrite the files after an intended report change with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest

from grassmat import harness
from grassmat.gmatrix import GrMatrix, matrices_to_json
from grassmat.grassmann import GrassmannElem
from grassmat.harness import Campaign, replay_reproducer, run_campaign
from grassmat.poly import Poly
from grassmat.report import COUNTEREXAMPLE_FOUND, FAIL, PASS
from grassmat.ring import QQ, ZZ, PrimeField

GOLDEN = Path(__file__).parent / "golden"
F7 = PrimeField(7)


def camp(target, n, m, ring, **kw):
    return dict(target=target, n=n, m=m, ring=ring, **kw)


# the configurations of tests/test_acceptance.py::test_c11_determinism
C11 = {
    "c11_theorem1": camp("Theorem1", 2, 3, ZZ, trials=5, seed=3),
    "c11_lemma2": camp("Lemma2", 2, 2, QQ, trials=5, seed=3),
    "c11_young": camp("YoungLemma", 1, 3, ZZ, trials=5, seed=3),
    "c11_capelli": camp("CapelliBound", 1, 2, F7, trials=5, structured=5, seed=3),
    "c11_corollary": camp("StandardCorollary", 1, 2, ZZ, trials=5, structured=5, seed=3),
    "c11_product": camp("StandardProduct", 1, 2, ZZ, trials=5, seed=3),
    "c11_filtration": camp("Filtration2", 2, 2, ZZ, trials=5, seed=3),
    "c11_ch_sharp": camp("CHSharpness", 2, 2, QQ),
    "c11_capelli_sharp": camp("CapelliSharpness", 1, 2, QQ),
    "c11_standard_sharp": camp("StandardSharpness", 1, 2, QQ),
    "c11_open": camp("OpenQuestion", 1, 3, ZZ, seed=3),
    "c11_al": camp("AmitsurLevitzki", 2, 0, ZZ, trials=5, seed=3),
}

# passing campaigns on paths the C11 set does not reach
EXTRA = {
    "pass_theorem1_field": camp("Theorem1", 2, 2, F7, trials=3, seed=5),
    "pass_theorem1_rat": camp("Theorem1", 3, 4, QQ, trials=3, seed=5),
    "pass_lemma2_exploratory": camp("Lemma2", 2, 2, QQ, trials=3, seed=4, exploratory=True),
    "pass_lemma2_fixed": camp("Lemma2", 2, 3, F7, trials=3, seed=4, lambdas=(2, 5)),
    "pass_young_rank0": camp("YoungLemma", 1, 0, ZZ, trials=5, seed=2),
    "pass_capelli_fallback": camp(
        "CapelliBound", 1, 4, PrimeField(2), trials=2, structured=2, seed=1
    ),
    "pass_corollary_two_degrees": camp(
        "StandardCorollary", 2, 2, ZZ, trials=2, structured=2, seed=6
    ),
    "pass_open_samples": camp(
        "OpenQuestion", 2, 2, ZZ, seed=2, budget=40, random_samples=3
    ),
}


def _unit(mats, *_, **__):
    first = mats[0]
    return GrMatrix.unit(first.n, first.m, first.ring, 1, 1)


def _zero(mats, *_, **__):
    first = mats[0]
    return GrMatrix.zero(first.n, first.m, first.ring)


def _top_e11(mats, *_, **__):
    """v1v2*e11: nonzero, but inside filtration 2."""
    first = mats[0]
    top = GrassmannElem.basis((1 << first.m) - 1, first.m, first.ring)
    return GrMatrix.unit(first.n, first.m, first.ring, 1, 1).scale(top)


class _ZeroRoots(Poly):
    """from_roots gives the zero polynomial: f(A) vanishes at every power."""

    @classmethod
    def from_roots(cls, ring, roots):
        return Poly.zero(ring)


class _DropRoot(Poly):
    """from_roots forgets the last root: f(A) keeps a degree-0 part."""

    @classmethod
    def from_roots(cls, ring, roots):
        return Poly.from_roots(ring, list(roots)[:-1])


# case -> (harness name, replacement, campaign, check the reproducer names)
FORCED = {
    "power_zero": ("charpoly", lambda M: Poly.one(M.ring), C11["c11_theorem1"], "power_zero"),
    "power_zero_rat": (
        "charpoly", lambda M: Poly.one(M.ring), EXTRA["pass_theorem1_rat"], "power_zero"
    ),
    "power_nonzero": (
        "Poly", _ZeroRoots, camp("Theorem1", 2, 2, ZZ, trials=3, seed=3), "power_nonzero"
    ),
    "lemma2": ("Poly", _DropRoot, camp("Lemma2", 2, 2, QQ, trials=3, seed=3), "lemma2"),
    "young_zero": ("young_alternating_sum", _unit, C11["c11_young"], "young"),
    "young_factorial": (
        "young_alternating_sum", _zero, camp("YoungLemma", 1, 0, ZZ, trials=5, seed=3), "young"
    ),
    "capelli_zero": ("capelli_dp", _unit, C11["c11_capelli"], "capelli_zero"),
    "capelli_zero_structured": (
        "capelli_dp", _unit, {**C11["c11_capelli"], "trials": 0}, "capelli_zero"
    ),
    "capelli_nonzero": ("capelli_dp", _zero, C11["c11_capelli"], "capelli_nonzero"),
    "standard_zero": ("standard_dp", _unit, C11["c11_corollary"], "standard_zero"),
    "standard_zero_structured": (
        "standard_dp", _unit, {**C11["c11_corollary"], "trials": 0}, "standard_zero"
    ),
    "standard_zero_al": ("standard_dp", _unit, C11["c11_al"], "standard_zero"),
    "standard_zero_open": ("standard_dp", _unit, C11["c11_open"], "standard_zero"),
    "standard_zero_open_samples": (
        "standard_dp",
        _unit,
        camp("OpenQuestion", 1, 2, ZZ, budget=1, random_samples=3, seed=3),
        "standard_zero",
    ),
    "standard_nonzero": ("standard_dp", _zero, C11["c11_corollary"], "standard_nonzero"),
    "standard_nonzero_al": ("standard_dp", _zero, C11["c11_al"], "standard_nonzero"),
    "standard_nonzero_filtration": (
        "standard_dp", _zero, C11["c11_filtration"], "standard_outside_filtration2"
    ),
    "standard_outside_filtration2": (
        "standard_dp", _top_e11, C11["c11_filtration"], "standard_outside_filtration2"
    ),
    "product_zero": ("standard_product_eval", _unit, C11["c11_product"], "product_zero"),
    "filtration2": ("standard_dp", _unit, C11["c11_filtration"], "filtration2"),
    "ch_sharp": ("Poly", _DropRoot, C11["c11_ch_sharp"], "ch_sharp"),
    "capelli_sharp": ("capelli_dp", _zero, C11["c11_capelli_sharp"], "capelli_sharp"),
    "standard_sharp": ("standard_dp", _zero, C11["c11_standard_sharp"], "standard_sharp"),
}


@contextmanager
def patched(name, replacement):
    old = getattr(harness, name)
    setattr(harness, name, replacement)
    try:
        yield
    finally:
        setattr(harness, name, old)


def forced_report(case):
    name, replacement, cfg, _ = FORCED[case]
    with patched(name, replacement):
        return run_campaign(Campaign(**cfg))


def counterexample_3_2():
    """s_8(e11, e12, e13, e21, e22, e23, v1*e11, v2*e31) = 4*v1v2*e23."""
    units = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (1, 1), (3, 1)]
    gens = [0, 0, 0, 0, 0, 0, 1, 2]
    mats = []
    for (r, s), g in zip(units, gens):
        unit = GrMatrix.unit(3, 2, ZZ, r, s)
        mats.append(unit.scale(GrassmannElem.generator(g, 2, ZZ)) if g else unit)
    return {"target": "OpenQuestion", "check": "standard_zero", "mats": matrices_to_json(mats)}


@lru_cache(maxsize=None)
def open_3_2_budget():
    """In lexicographic order over atoms(3, 2) the first counterexample is tuple 517,955."""
    return run_campaign(Campaign(**camp("OpenQuestion", 3, 2, ZZ, seed=0, budget=600000)))


def _builders():
    out = {}
    for group in (C11, EXTRA):
        for case, cfg in group.items():
            out[case] = lambda cfg=cfg: run_campaign(Campaign(**cfg))
    for case, (name, replacement, _, _) in FORCED.items():
        out[f"forced_{case}"] = lambda case=case: forced_report(case)

        def replay_patched(case=case, name=name, replacement=replacement):
            reproducer = forced_report(case).reproducer
            with patched(name, replacement):
                return replay_reproducer(reproducer)

        out[f"replay_fail_{case}"] = replay_patched
        out[f"replay_pass_{case}"] = lambda case=case: replay_reproducer(
            forced_report(case).reproducer
        )
    out["replay_counterexample_3_2"] = lambda: replay_reproducer(counterexample_3_2())
    out["open_3_2_budget"] = open_3_2_budget
    out["replay_open_3_2_budget"] = lambda: replay_reproducer(open_3_2_budget().reproducer)
    return out


BUILDERS = _builders()


def canonical(report) -> str:
    return report.to_json(include_elapsed=False) + "\n"


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert canonical(BUILDERS[case]()) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(BUILDERS)


def test_known_counterexample_replays():
    rep = replay_reproducer(counterexample_3_2())
    assert rep.verdict == COUNTEREXAMPLE_FOUND
    assert rep.find("value") == "4*v1v2*e23"


@pytest.mark.parametrize("case", sorted(FORCED))
def test_forced_failure_round_trips_through_replay(case):
    name, replacement, cfg, check = FORCED[case]
    report = forced_report(case)
    assert report.verdict in (FAIL, COUNTEREXAMPLE_FOUND)
    assert report.reproducer["check"] == check
    with patched(name, replacement):
        again = replay_reproducer(report.reproducer)
    assert again.verdict == report.verdict
    assert again.reproducer == report.reproducer
    restored = replay_reproducer(report.reproducer)
    assert restored.verdict == PASS and restored.reproducer is None


def test_campaigns_emit_every_registered_check():
    assert {check for *_, check in FORCED.values()} == set(harness.CHECKS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.mkdir(exist_ok=True)
    for case, build in sorted(BUILDERS.items()):
        (GOLDEN / f"{case}.json").write_text(canonical(build()), encoding="utf-8")
    print(f"wrote {len(BUILDERS)} golden reports to {GOLDEN}")
