"""A campaign refuses a point past a cap before any work, and `grid`
takes that refusal, and nothing else, as its SKIP.

Each case is one target over an (n, m) grid at one --max-dp-k.  Every
point runs once as a direct campaign, over the ring its subcommand
defaults to, with the evaluators counted; the grid then runs the same
points through the command line.

The degree a campaign refuses is the largest one its DP evaluators
receive: each DP target runs at exactly that cap and refuses one below
it, before it draws a trial or builds an atom or a witness.
"""

import json

import pytest

from grassmat import cli, harness, identities
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


def campaign(target, n, m, cap):
    """The sweep's campaign at one point, over the subcommand's default ring."""
    ring = parse_ring(DIRECT_RING.get(target, "int"))
    return Campaign(target, n=n, m=m, ring=ring, max_dp_k=cap, **SWEEP)


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

        with pytest.MonkeyPatch.context() as mp:
            for name in EVALUATORS:
                mp.setattr(harness, name, counted(name, getattr(harness, name)))
            try:
                _outcomes[key] = (run_campaign(campaign(target, n, m, cap)).verdict, [])
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


# targets that hand no matrices to standard_dp or capelli_dp
NO_DP = ("Theorem1", "Lemma2", "YoungLemma", "CHSharpness")
DP_TARGETS = [t for t in TARGETS if t not in NO_DP]

# what a campaign draws trials from and builds atoms and witnesses with
BUILDERS = ("trial_rng", "atom", "ch_inputs", "capelli_inputs", "standard_witness",
            "staircase_units")

_dp_degrees = {}


def run_fast(target, n, m, cap, sizes):
    """run_campaign at one point, with len(xs) of each standard_dp and
    capelli_dp call, in a block product too, appended to sizes.  The
    naive cross-checks return their DP's value here: at k = 8 their
    8! words take seconds and do not bear on the guard."""
    dp = {name: getattr(identities, name) for name in ("standard_dp", "capelli_dp")}

    def recorded(name):
        def run(xs, *args, **kwargs):
            sizes.append(len(xs))
            return dp[name](xs, *args, **kwargs)

        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in dp:
            mp.setattr(harness, name, recorded(name))
            mp.setattr(identities, name, recorded(name))
        mp.setattr(harness, "standard_naive", lambda mats, max_k: dp["standard_dp"](mats))
        mp.setattr(harness, "capelli_naive", lambda xs, ys, max_k: dp["capelli_dp"](xs, ys))
        return run_campaign(campaign(target, n, m, cap))


def dp_degree(target, n, m):
    """K: the most matrices a DP receives in the campaign at cap 24;
    None if no DP runs."""
    if (target, n, m) not in _dp_degrees:
        sizes = []
        run_fast(target, n, m, 24, sizes)
        _dp_degrees[target, n, m] = max(sizes, default=None)
    return _dp_degrees[target, n, m]


def pinned_points(target):
    """(n, m, K) over n <= 2, m <= 3; a point whose campaign never reaches
    a DP (an open search whose budget goes to pruned tuples) has no K."""
    out = [(n, m, dp_degree(target, n, m)) for n, m in points(2, 3)]
    out = [(n, m, k) for n, m, k in out if k is not None]
    assert out, f"{target} never reached a DP evaluator"
    return out


def no_builders(mp):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or built inputs before refusing the point")

    for name in BUILDERS:
        mp.setattr(harness, name, unreachable)


@pytest.mark.parametrize("target", DP_TARGETS)
def test_campaign_runs_at_its_largest_dp_degree_and_refuses_one_below(target):
    for n, m, k in pinned_points(target):
        assert run_fast(target, n, m, k, []).verdict in ("PASS", "NO_COUNTEREXAMPLE_IN_BUDGET")
        with pytest.raises(DegreeTooLargeError, match=f"capped at k <= {k - 1}, got {k}$"):
            run_campaign(campaign(target, n, m, k - 1))


@pytest.mark.parametrize("target", DP_TARGETS)
def test_dp_refusal_comes_before_any_draw_or_build(target, monkeypatch):
    points_k = pinned_points(target)
    no_builders(monkeypatch)
    for n, m, k in points_k:
        with pytest.raises(DegreeTooLargeError, match=f"capped at k <= {k - 1}, got {k}$"):
            run_campaign(campaign(target, n, m, k - 1))


@pytest.mark.parametrize("target", ["Theorem1", "Lemma2"])
def test_rank_cap_refuses_before_the_first_draw(target, monkeypatch):
    no_builders(monkeypatch)
    with pytest.raises(DegreeTooLargeError, match="capped at rank m <= 24, got 25$"):
        run_campaign(campaign(target, 1, 25, 24))
