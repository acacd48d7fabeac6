"""A campaign refuses a point past a cap before any work, and `grid`
takes that refusal, and nothing else, as its SKIP.

Each case is one target over an (n, m) grid at one --max-dp-k.  Every
point runs once as a direct campaign, over the ring its subcommand
defaults to, with the evaluators counted; the grid then runs the same
points through the command line.
"""

import json

import pytest

from grassmat import cli, harness
from grassmat.errors import DegreeTooLargeError
from grassmat.harness import TARGETS, Campaign, run_campaign
from grassmat.ring import parse_ring

EVALUATORS = (
    "standard_dp",
    "capelli_dp",
    "standard_naive",
    "capelli_naive",
    "young_alternating_sum",
    "standard_product_eval",
)

# target -> the --ring its own subcommand defaults to
DIRECT_RING = {target: ring for target, ring, _ in cli._SUBCOMMANDS.values() if target}

SWEEP = dict(trials=1, structured=1, budget=20)

# (target, n_max, m_max, max_dp_k): every target at two caps, plus one
# grid where the Young shapes (up to k = 7) run, and CapelliSharpness at
# (1, 2) and StandardProduct at (1, 4), which a per-target degree table
# once skipped although their campaigns pass
GRIDS = [(target, 2, 2, cap) for target in TARGETS for cap in (3, 6)] + [
    ("YoungLemma", 1, 1, 7),
    ("CapelliSharpness", 1, 2, 3),
    ("StandardProduct", 1, 4, 4),
]


def points(n_max, m_max):
    return [(n, m) for n in range(1, n_max + 1) for m in range(m_max + 1)]


# (target, n, m, max_dp_k): every grid point, plus standard-verify
# -n 2 -m 4 --max-dp-k 8 and young -n 2 -m 4 --max-dp-k 6, which once
# refused only after a whole pass
POINTS = sorted(
    {(t, n, m, cap) for t, n_max, m_max, cap in GRIDS for n, m in points(n_max, m_max)}
    | {("StandardCorollary", 2, 4, 8), ("YoungLemma", 2, 4, 6)}
)

_outcomes = {}


def direct(target, n, m, cap):
    """(verdict or "SKIP", evaluator calls that returned before a refusal)."""
    key = (target, n, m, cap)
    if key not in _outcomes:
        returned = []

        def counted(name, evaluate):
            def run(*args, **kwargs):
                value = evaluate(*args, **kwargs)
                returned.append(name)
                return value

            return run

        ring = parse_ring(DIRECT_RING.get(target, "int"))
        campaign = Campaign(target, n=n, m=m, ring=ring, max_dp_k=cap, **SWEEP)
        with pytest.MonkeyPatch.context() as mp:
            for name in EVALUATORS:
                mp.setattr(harness, name, counted(name, getattr(harness, name)))
            try:
                _outcomes[key] = (run_campaign(campaign).verdict, [])
            except DegreeTooLargeError:
                _outcomes[key] = ("SKIP", returned)
    return _outcomes[key]


@pytest.mark.parametrize("target", TARGETS)
def test_a_refusal_comes_before_any_evaluator_returns(target):
    for _, n, m, cap in (p for p in POINTS if p[0] == target):
        verdict, returned = direct(target, n, m, cap)
        assert returned == [], f"({n}, {m}) at cap {cap} refused after {returned}"


@pytest.mark.parametrize("target, n_max, m_max, cap", GRIDS)
def test_grid_row_is_the_direct_verdict(target, n_max, m_max, cap, capsys):
    argv = ["grid", "--target", target, "--n-max", str(n_max), "--m-max", str(m_max),
            "--max-dp-k", str(cap), "--format", "json"]
    argv += [f"--{flag}={value}" for flag, value in SWEEP.items()]
    cli.main(argv)
    rows = json.loads(capsys.readouterr().out)["rows"]
    got = {(r["n"], r["m"]): r["verdict"] for r in rows}
    assert got == {(n, m): direct(target, n, m, cap)[0] for n, m in points(n_max, m_max)}
