"""The command line's contract: which Campaign each subcommand builds.

main() is run with cli.run_campaign replaced by a recorder, so no check
runs.  Each case pins every Campaign field of the campaign(s) main
builds: the defaults of each subcommand, one run of each
subcommand-specific flag, and one of each shared flag.  The option
strings of each subcommand and its --help exit are pinned too.
"""

from dataclasses import fields
from fractions import Fraction

import pytest

from grassmat import cli
from grassmat.cli import build_parser, main
from grassmat.harness import Campaign
from grassmat.report import EXIT_OK, PASS, Report

DEFAULTS = {
    "n": 2,
    "m": 2,
    "trials": 50,
    "seed": 0,
    "budget": 10000,
    "sparsity": 2,
    "structured": 50,
    "random_samples": 0,
    "max_dp_k": 24,
    "exploratory": False,
    "lambdas": None,
    "parts": None,
}

# subcommand -> (target, default ring)
SUBCOMMANDS = {
    "ch-verify": ("Theorem1", "int"),
    "ch-sharp": ("CHSharpness", "rat"),
    "lemma2": ("Lemma2", "rat"),
    "young": ("YoungLemma", "int"),
    "capelli-verify": ("CapelliBound", "int"),
    "capelli-sharp": ("CapelliSharpness", "rat"),
    "standard-verify": ("StandardCorollary", "int"),
    "standard-sharp": ("StandardSharpness", "rat"),
    "al-check": ("AmitsurLevitzki", "int"),
    "open-search": ("OpenQuestion", "int"),
    "grid": ("Theorem1", "int"),
}

COMMON_OPTIONS = {
    "-h", "--help", "-n", "-m", "--seed", "--trials", "--sparsity", "--structured",
    "--max-dp-k", "--ring", "--format", "--output", "--replay",
}

EXTRA_OPTIONS = {
    "ch-sharp": {"--lambdas"},
    "lemma2": {"--lambdas", "--exploratory"},
    "capelli-sharp": {"--parts"},
    "standard-verify": {"--check"},
    "open-search": {"--budget", "--random-samples"},
    "grid": {"--target", "--n-max", "--m-max", "--budget"},
}


def record(monkeypatch, argv):
    """The Campaigns main(argv) hands to run_campaign, as plain dicts."""
    seen = []

    def fake(campaign):
        seen.append({f.name: getattr(campaign, f.name) for f in fields(Campaign)})
        seen[-1]["ring"] = campaign.ring.name
        return Report(campaign={"target": campaign.target}, verdict=PASS, trials=0)

    monkeypatch.setattr(cli, "run_campaign", fake)
    assert main(argv) == EXIT_OK
    return seen


def expected(sub, **changes):
    target, ring = SUBCOMMANDS[sub]
    return {"target": target, "ring": ring, **DEFAULTS, **changes}


@pytest.mark.parametrize("sub", sorted(set(SUBCOMMANDS) - {"grid"}))
def test_defaults_per_subcommand(sub, monkeypatch, capsys):
    assert record(monkeypatch, [sub]) == [expected(sub)]


def test_grid_defaults(monkeypatch, capsys):
    seen = record(monkeypatch, ["grid"])
    points = [(n, m) for n in range(1, 4) for m in range(6)]
    assert seen == [expected("grid", n=n, m=m) for n, m in points]


@pytest.mark.parametrize(
    "argv, changes",
    [
        (["ch-sharp", "--lambdas", "1, 3/2"], {"lambdas": (Fraction(1), Fraction(3, 2))}),
        (["lemma2", "--lambdas", "2,5"], {"lambdas": (Fraction(2), Fraction(5))}),
        (["lemma2", "--exploratory"], {"exploratory": True}),
        (["capelli-sharp", "--parts", "2,0,4"], {"parts": (2, 0, 4)}),
        (["standard-verify", "--check", "corollary"], {}),
        (["standard-verify", "--check", "product"], {"target": "StandardProduct"}),
        (["standard-verify", "--check", "filtration"], {"target": "Filtration2"}),
        (["open-search", "--budget", "7"], {"budget": 7}),
        (["open-search", "--random-samples", "3"], {"random_samples": 3}),
    ],
)
def test_subcommand_flags(argv, changes, monkeypatch, capsys):
    assert record(monkeypatch, argv) == [expected(argv[0], **changes)]


@pytest.mark.parametrize(
    "argv, changes",
    [
        (["-n", "3"], {"n": 3}),
        (["-m", "5"], {"m": 5}),
        (["--seed", "11"], {"seed": 11}),
        (["--trials", "4"], {"trials": 4}),
        (["--sparsity", "6"], {"sparsity": 6}),
        (["--structured", "9"], {"structured": 9}),
        (["--max-dp-k", "12"], {"max_dp_k": 12}),
        (["--ring", "zmod:7"], {"ring": "zmod:7"}),
        (["--ring", "rat"], {"ring": "rat"}),
        (["--ring", "int"], {"ring": "int"}),
        (["--format", "json"], {}),
    ],
)
@pytest.mark.parametrize("sub", ["ch-verify", "ch-sharp", "standard-verify", "open-search"])
def test_shared_flags(sub, argv, changes, monkeypatch, capsys):
    assert record(monkeypatch, [sub, *argv]) == [expected(sub, **changes)]


def test_ring_flag_then_default_does_not_leak(monkeypatch, capsys):
    record(monkeypatch, ["ch-verify", "--ring", "zmod:5"])
    assert record(monkeypatch, ["lemma2"]) == [expected("lemma2")]
    assert record(monkeypatch, ["young"]) == [expected("young")]


def test_grid_flags(monkeypatch, capsys):
    argv = ["grid", "--target", "OpenQuestion", "--n-max", "1", "--m-max", "1",
            "--budget", "5", "--ring", "zmod:3", "--trials", "2"]
    seen = record(monkeypatch, argv)
    common = dict(target="OpenQuestion", ring="zmod:3", budget=5, trials=2)
    assert seen == [expected("grid", n=1, m=m, **common) for m in (0, 1)]


def test_output_writes_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r.json"
    assert record(monkeypatch, ["al-check", "--output", str(path)]) == [expected("al-check")]
    assert path.read_text(encoding="utf-8").endswith("}\n")


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_option_strings(sub):
    sub_parsers = build_parser()._subparsers._group_actions[0].choices
    assert set(sub_parsers) == set(SUBCOMMANDS)
    options = {s for action in sub_parsers[sub]._actions for s in action.option_strings}
    assert options == COMMON_OPTIONS | EXTRA_OPTIONS.get(sub, set())


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_help_exits_zero(sub, capsys):
    assert main([sub, "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: grassmat {sub}")
