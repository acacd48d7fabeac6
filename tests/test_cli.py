"""Command-line interface: output formats, exit codes, replay."""

import json
import time

import pytest

from grassmat import cli, harness, sampling
from grassmat.cli import main
from grassmat.errors import (
    BadCharacteristicError,
    DuplicateLambdasError,
    HypothesisViolationError,
)
from grassmat.gmatrix import GrMatrix, matrices_to_json
from grassmat.report import EXIT_IO, EXIT_OK, EXIT_USAGE
from grassmat.ring import QQ, ZZ, PrimeField
from grassmat.witnesses import capelli_inputs, ch_inputs, standard_witness


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ table output

def test_ch_verify_table_headline(capsys):
    code, out, err = run(
        capsys,
        ["ch-verify", "-n", "2", "-m", "4", "--ring", "int", "--trials", "50", "--seed", "1"],
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "Theorem1 n=2 m=4 ring=int exponent=3 trials=50 PASS"
    assert any(l.startswith("  elapsed_ms:") for l in lines)
    assert err == ""


def test_standard_sharp_table_value(capsys):
    code, out, _ = run(capsys, ["standard-sharp", "-n", "1", "-m", "2"])
    assert code == EXIT_OK
    assert "2*v1v2*e11" in out
    assert out.splitlines()[0].endswith("PASS")


def test_ring_defaults_per_subcommand(capsys):
    # Verification defaults to int; sharpness needs a field and
    # defaults to rat.  The defaults must not bleed across subcommands.
    _, out, _ = run(capsys, ["ch-verify", "-n", "1", "-m", "2", "--trials", "1", "--format", "json"])
    assert json.loads(out)["campaign"]["ring"] == "int"
    _, out, _ = run(capsys, ["ch-sharp", "-n", "2", "-m", "2", "--format", "json"])
    assert json.loads(out)["campaign"]["ring"] == "rat"
    _, out, _ = run(capsys, ["capelli-verify", "-n", "1", "-m", "0", "--trials", "1", "--structured", "1", "--format", "json"])
    assert json.loads(out)["campaign"]["ring"] == "int"


def test_bool_details_render_lowercase(capsys):
    _, out, _ = run(capsys, ["ch-verify", "-n", "1", "-m", "2", "--trials", "2"])
    assert "  control_lower_exponent_nonzero: true" in out


# ------------------------------------------------------------ json output

def test_json_format_schema(capsys):
    code, out, _ = run(
        capsys,
        ["ch-verify", "-n", "1", "-m", "2", "--trials", "3", "--format", "json"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert set(data) == {
        "campaign",
        "verdict",
        "trials",
        "details",
        "reproducer",
        "elapsed_ms",
    }
    assert data["verdict"] == "PASS"
    assert data["campaign"]["target"] == "Theorem1"
    assert data["reproducer"] is None
    assert all(set(d) == {"name", "value"} for d in data["details"])


def test_output_file_matches_json_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    args = ["ch-verify", "-n", "1", "-m", "2", "--trials", "3", "--seed", "5"]
    code, out, _ = run(capsys, args + ["--format", "json", "--output", str(path)])
    assert code == EXIT_OK
    on_disk = path.read_text()
    assert on_disk == out
    # Table mode still writes the JSON file.
    path2 = tmp_path / "report2.json"
    code2, out2, _ = run(capsys, args + ["--output", str(path2)])
    assert code2 == EXIT_OK
    assert "Theorem1" in out2 and not out2.startswith("{")
    data = json.loads(path2.read_text())
    assert data["verdict"] == "PASS"


def test_reports_deterministic_modulo_timing(tmp_path, capsys):
    args = [
        "capelli-verify", "-n", "1", "-m", "2",
        "--trials", "3", "--structured", "3", "--seed", "7", "--format", "json",
    ]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


# ------------------------------------------------------------ subcommands

def test_all_verify_subcommands_run(capsys):
    quick = ["-n", "1", "-m", "2", "--trials", "2", "--structured", "2"]
    for argv in (
        ["ch-verify"] + quick,
        ["ch-sharp", "-n", "2", "-m", "2"],
        ["lemma2", "-n", "2", "-m", "2", "--trials", "2"],
        ["young", "-n", "1", "-m", "2", "--trials", "2"],
        ["capelli-verify"] + quick,
        ["capelli-sharp", "-n", "1", "-m", "2"],
        ["standard-verify"] + quick,
        ["standard-verify", "--check", "product"] + quick,
        ["standard-verify", "--check", "filtration"] + quick,
        ["standard-sharp", "-n", "1", "-m", "2"],
        ["al-check", "-n", "2", "-m", "0", "--trials", "2"],
    ):
        code, out, err = run(capsys, argv)
        assert code == EXIT_OK, (argv, err)
        assert "PASS" in out


def test_open_search_exit_zero(capsys):
    code, out, _ = run(capsys, ["open-search", "-n", "1", "-m", "2"])
    assert code == EXIT_OK
    assert "NO_COUNTEREXAMPLE_IN_BUDGET" in out


def test_open_search_options(capsys):
    code, out, _ = run(
        capsys,
        [
            "open-search", "-n", "1", "-m", "2",
            "--budget", "10", "--random-samples", "2",
            "--format", "json",
        ],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["campaign"]["budget"] == 10
    assert data["campaign"]["random_samples"] == 2


@pytest.mark.parametrize("samples", ["-3", "-1"])
def test_open_search_negative_random_samples_usage_error(capsys, samples):
    code, out, err = run(
        capsys, ["open-search", "-n", "1", "-m", "2", "--random-samples", samples]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot draw {samples} samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ch-verify", "--sparsity", "-3"],
        ["capelli-verify", "-n", "1", "-m", "2", "--trials", "-4", "--structured", "-2"],
        ["open-search", "-n", "0"],
    ],
)
def test_out_of_range_counts_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["standard-verify", "-n", "1", "-m", "-1"],
        ["open-search", "-n", "1", "-m", "-1"],
        ["ch-verify", "-n", "1", "-m", "63"],
    ],
)
def test_rank_outside_range_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"rank must satisfy 0 <= m <= 62, got {argv[-1]}" in err


def count_atom_builds(monkeypatch, bound):
    """Count every atom a campaign builds, through harness.atom and
    sampling.atom alike, and fail as soon as more than bound are built;
    sampling.atoms, which builds a whole pool, must never run."""
    built = []

    def counted(real):
        def atom(*args):
            built.append(args[-1])
            if len(built) > bound:
                raise AssertionError(f"more than {bound} atoms built")
            return real(*args)

        return atom

    def no_atoms(*args):
        raise AssertionError("atoms() built a whole pool")

    monkeypatch.setattr(harness, "atom", counted(harness.atom))
    monkeypatch.setattr(sampling, "atom", counted(sampling.atom))
    monkeypatch.setattr(harness, "atoms", no_atoms)
    return built


def test_open_search_past_dp_cap_fails_before_building_atoms(capsys, monkeypatch):
    # k = 2(1 + 20) = 42 > 24: no atom of the 2^40 may be built
    built = count_atom_builds(monkeypatch, 0)
    code, out, err = run(capsys, ["open-search", "-n", "1", "-m", "40", "--budget", "10"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "capped at k <= 24, got 42" in err
    assert built == []


def test_open_search_builds_only_the_atoms_it_visits(capsys, monkeypatch):
    # k = 2(1 + 11) = 24 is allowed over 4.2 M atoms; the walk reaches its
    # budget after three of them, so no pool may be built up front
    built = count_atom_builds(monkeypatch, 3)
    argv = ["open-search", "-n", "1", "-m", "22", "--budget", "10", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    found = {d["name"]: d["value"] for d in json.loads(out)["details"]}
    assert found["atoms"] == 1 << 22
    assert found["tuples_considered"] == 10
    assert len(built) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # k = 24 over 4.2 M atoms: one structured draw needs 24 of them
        ["standard-verify", "-n", "1", "-m", "22", "--trials", "0", "--structured", "1"],
        ["capelli-verify", "-n", "1", "-m", "2", "--trials", "1", "--structured", "3"],
    ],
)
def test_campaigns_build_only_the_atoms_they_draw(capsys, monkeypatch, argv):
    built = count_atom_builds(monkeypatch, {"standard-verify": 24, "capelli-verify": 4}[argv[0]])
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith("PASS")
    assert built


def test_lemma2_without_trials_usage_error(capsys):
    # its control reads the trials' f(A), so a run without trials is refused
    code, out, err = run(capsys, ["lemma2", "-n", "2", "-m", "2", "--trials", "0"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "trials >= 1" in err


def test_open_search_samples_larger_than_atoms_usage_error(capsys):
    # (1, 0) has one atom and k = 2, so no 2-subset can be drawn
    code, out, err = run(
        capsys, ["open-search", "-n", "1", "-m", "0", "--random-samples", "2"]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "k=2 of 1 atoms" in err


def test_open_search_zero_random_samples_still_exhausts(capsys):
    code, out, _ = run(
        capsys,
        ["open-search", "-n", "1", "-m", "0", "--random-samples", "0", "--format", "json"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["campaign"]["random_samples"] == 0
    assert {d["name"]: d["value"] for d in data["details"]}["exhausted"] is True


def test_ch_sharp_lambdas_option(capsys):
    code, out, _ = run(
        capsys,
        ["ch-sharp", "-n", "2", "-m", "2", "--lambdas", "1/2,3", "--format", "json"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["campaign"]["lambdas"] == ["1/2", "3"]


def test_lemma2_lambdas_of_the_wrong_length(capsys):
    code, out, err = run(capsys, ["lemma2", "-n", "2", "--lambdas", "1,2,3"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "need 2 eigenvalues, got 3" in err


@pytest.mark.parametrize(
    "argv", [["ch-sharp", "--lambdas", "1/0,1"], ["lemma2", "-n", "2", "--lambdas", "1/0,2"]]
)
def test_zero_denominator_lambdas_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "zero denominator in '1/0'" in err


def test_capelli_sharp_parts_option(capsys):
    code, out, _ = run(
        capsys,
        ["capelli-sharp", "-n", "1", "-m", "4", "--parts", "4", "--format", "json"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["campaign"]["parts"] == [4]


# ------------------------------------------------------------ grid

def test_grid_table(capsys):
    code, out, _ = run(
        capsys,
        ["grid", "--target", "Theorem1", "--n-max", "2", "--m-max", "2",
         "--trials", "2", "--structured", "2"],
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("grid target=Theorem1 ring=int")
    assert "verdict" in lines[1]
    # 2 values of n times 3 values of m.
    assert sum(1 for l in lines[2:] if l.strip().endswith("PASS")) == 6


def test_grid_json_and_witness_fallback(tmp_path, capsys):
    # CHSharpness needs a field; over int each point reruns over rat.
    path = tmp_path / "grid.json"
    code, out, _ = run(
        capsys,
        ["grid", "--target", "CHSharpness", "--n-max", "1", "--m-max", "1",
         "--format", "json", "--output", str(path)],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["target"] == "CHSharpness"
    assert [r["verdict"] for r in data["rows"]] == ["PASS", "PASS"]
    assert path.read_text() == out


def test_grid_marks_a_point_past_a_cap_skip(capsys):
    # the campaign refuses m = 25 (ch_exponent's rank cap) before any
    # power, and the grid takes that refusal as SKIP
    argv = ["grid", "--target", "Theorem1", "--n-max", "1", "--m-max", "25",
            "--trials", "1", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == list(range(26))
    assert [r["verdict"] for r in rows] == ["PASS"] * 25 + ["SKIP"]


def test_grid_skips_a_point_its_prime_field_cannot_carry(capsys):
    # ch-sharp at m = 5 needs characteristic 0 or p > 3
    argv = ["grid", "--target", "CHSharpness", "--ring", "zmod:3", "--n-max", "1",
            "--m-max", "5", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert [r["verdict"] for r in json.loads(out)["rows"]] == ["PASS"] * 5 + ["SKIP"]
    # three distinct eigenvalues do not fit in zmod:2
    argv = ["grid", "--target", "Lemma2", "--ring", "zmod:2", "--n-max", "3",
            "--m-max", "1", "--trials", "5", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code != EXIT_USAGE
    rows = {(r["n"], r["m"]): r["verdict"] for r in json.loads(out)["rows"]}
    assert len(rows) == 6
    assert rows[1, 0] == rows[2, 0] == "PASS"
    assert rows[3, 0] == rows[3, 1] == "SKIP"


def test_lemma2_over_zmod2_keeps_a_nonzero_degree1_part(capsys):
    # with one generator, two draws of v1 would cancel mod 2
    code, out, _ = run(capsys, ["lemma2", "-n", "1", "-m", "1", "--ring", "zmod:2", "--format", "json"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["details"] == [{"name": "control_degree1_part_nonzero", "value": True}]


def test_grid_lemma2_over_zmod2_passes_every_point_it_runs(capsys):
    argv = ["grid", "--target", "Lemma2", "--ring", "zmod:2", "--n-max", "3",
            "--m-max", "3", "--trials", "1", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    rows = {(r["n"], r["m"]): r["verdict"] for r in json.loads(out)["rows"]}
    assert rows == {(n, m): "SKIP" if n == 3 else "PASS" for n in (1, 2, 3) for m in range(4)}


def test_grid_skips_colliding_eigenvalues(capsys):
    # the default eigenvalues 0, 1, 2 collide mod 2, so each n = 3 point is
    # refused before its first trial, with the same error class as a drawn
    # collision; every other row is what the campaign alone gives
    argv = ["grid", "--target", "CHSharpness", "--ring", "zmod:2", "--n-max", "3",
            "--m-max", "2", "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK
    assert err == ""
    rows = json.loads(out)["rows"]
    assert [(r["n"], r["m"]) for r in rows] == [(n, m) for n in (1, 2, 3) for m in (0, 1, 2)]
    for row in rows:
        campaign = harness.Campaign(
            target=harness.CH_SHARPNESS, n=row["n"], m=row["m"], ring=PrimeField(2)
        )
        try:
            verdict = harness.run_campaign(campaign).verdict
        except (BadCharacteristicError, DuplicateLambdasError):
            verdict = "SKIP"
        assert row["verdict"] == verdict
    assert [r["verdict"] for r in rows if r["n"] == 3] == ["SKIP"] * 3


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-max", "0"], "matrix dimension n must be >= 1, got 0"),
        (["--m-max", "-1"], "rank must satisfy 0 <= m <= 62, got -1"),
        (["--m-max", "63"], "rank must satisfy 0 <= m <= 62, got 63"),
    ],
)
def test_grid_refuses_a_bad_range_before_any_point(capsys, monkeypatch, flags, message):
    def unreachable(campaign):
        raise AssertionError("grid ran a point")

    monkeypatch.setattr(cli, "run_campaign", unreachable)
    code, out, err = run(capsys, ["grid", "--target", "Theorem1", *flags])
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_grid_reruns_over_rat_only_for_a_missing_field(capsys, monkeypatch):
    def fails_over_int(campaign):
        if campaign.ring == ZZ:
            raise HypothesisViolationError("broken over int")
        return real(campaign)

    real = cli.run_campaign
    monkeypatch.setattr(cli, "run_campaign", fails_over_int)
    code, out, err = run(capsys, ["grid", "--n-max", "1", "--m-max", "0", "--trials", "1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "broken over int" in err


def test_grid_includes_degree_columns(capsys):
    code, out, _ = run(
        capsys,
        ["grid", "--target", "OpenQuestion", "--n-max", "1", "--m-max", "1",
         "--budget", "10"],
    )
    assert code == EXIT_OK
    assert "open_k" in out.splitlines()[1]


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize(
    "argv",
    [["ch-verify", "--trials", "1"],
     ["grid", "--target", "Theorem1", "--n-max", "2", "--m-max", "1"]],
)
def test_negative_max_dp_k_usage_error(capsys, argv):
    # a grid at a negative cap would take every point as refused, a SKIP
    code, out, err = run(capsys, [*argv, "--max-dp-k", "-1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "max_dp_k must be >= 0, got -1" in err


@pytest.mark.parametrize("where", ["replay", "lambdas"])
def test_rat_exponent_notation_fails_fast(tmp_path, capsys, where):
    # Fraction("1e1000000000") would first build a billion-digit power of ten
    huge = "1e1000000000"
    if where == "replay":
        data = harness._reproducer("CHSharpness", "ch_sharp", ch_inputs(1, 2, QQ))
        data["matrix"]["entries"][0][0][0][1] = huge
        p = tmp_path / "rep.json"
        p.write_text(json.dumps(data))
        argv = ["ch-sharp", "--replay", str(p)]
    else:
        argv = ["ch-sharp", "-n", "2", "-m", "2", "--lambdas", f"0,{huge}"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "exponent notation" in err
    assert time.perf_counter() - start < 1.0


def test_unknown_subcommand_usage_error(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_USAGE
    assert err != ""


def test_no_arguments_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == EXIT_USAGE


def test_bad_ring_usage_error(capsys):
    for ring in ("foo", "zmod:4"):
        code, _, err = run(capsys, ["ch-verify", "--ring", ring, "--trials", "1"])
        assert code == EXIT_USAGE
        assert "error" in err


def test_witness_over_non_field_usage_error(capsys):
    code, _, err = run(capsys, ["ch-sharp", "-n", "2", "-m", "2", "--ring", "int"])
    assert code == EXIT_USAGE
    assert "field" in err


def test_bad_characteristic_usage_error(capsys):
    code, _, _ = run(capsys, ["ch-sharp", "-n", "1", "-m", "4", "--ring", "zmod:2"])
    assert code == EXIT_USAGE


def test_missing_replay_file_io_error(capsys):
    code, _, err = run(capsys, ["ch-verify", "--replay", "/nonexistent/file.json"])
    assert code == EXIT_IO
    assert "i/o error" in err


def test_replay_file_not_json_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    code, _, _ = run(capsys, ["ch-verify", "--replay", str(p)])
    assert code == EXIT_USAGE


def test_replay_file_nested_too_deeply_usage_error(tmp_path, capsys):
    # json.load recurses once per array, so 100,000 levels overflow the stack
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["ch-verify", "--replay", str(p)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "nests too deeply" in err


def test_replay_file_without_reproducer(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"verdict": "PASS", "reproducer": None}))
    code, _, err = run(capsys, ["ch-verify", "--replay", str(p)])
    assert code == EXIT_USAGE
    assert "no reproducer" in err


def test_unwritable_output_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["ch-verify", "-n", "1", "-m", "0", "--trials", "1",
         "--output", str(tmp_path / "no" / "dir" / "x.json")],
    )
    assert code == EXIT_IO
    assert "i/o error" in err


# ------------------------------------------------------------ replay

def test_replay_round_trip_pass(tmp_path, capsys):
    mats = standard_witness(1, 2, QQ)
    p = tmp_path / "rep.json"
    p.write_text(
        json.dumps(
            {
                "target": "StandardCorollary",
                "check": "standard_nonzero",
                "mats": matrices_to_json(mats),
            }
        )
    )
    code, out, _ = run(capsys, ["standard-verify", "--replay", str(p)])
    assert code == EXIT_OK
    assert "PASS" in out


def test_replay_reproducer_failure_exit_code(tmp_path, capsys):
    # The witness evaluates nonzero, so replaying it as a vanishing
    # claim must exit with the failure code.
    mats = standard_witness(1, 2, QQ)
    p = tmp_path / "rep.json"
    p.write_text(
        json.dumps(
            {
                "target": "StandardCorollary",
                "check": "standard_zero",
                "mats": matrices_to_json(mats),
            }
        )
    )
    code, out, _ = run(capsys, ["standard-verify", "--replay", str(p)])
    assert code == 2
    assert "FAIL" in out


def test_sharpness_failure_replays(tmp_path, capsys, monkeypatch):
    # a zeroed standard_dp fails the witness; its report's reproducer
    # replays to FAIL while the evaluator stays patched
    def zero(mats, **_):
        first = mats[0]
        return GrMatrix.zero(first.n, first.m, first.ring)

    monkeypatch.setattr(harness, "standard_dp", zero)
    p = tmp_path / "rep.json"
    code, out, _ = run(capsys, ["standard-sharp", "-n", "1", "-m", "2", "--output", str(p)])
    assert code == 2
    assert "reproducer: present" in out
    assert json.loads(p.read_text())["reproducer"]["check"] == "standard_sharp"
    code, out, _ = run(capsys, ["standard-sharp", "--replay", str(p)])
    assert code == 2
    assert "FAIL" in out
    monkeypatch.undo()
    code, out, _ = run(capsys, ["standard-sharp", "--replay", str(p)])
    assert code == EXIT_OK
    assert "PASS" in out


def test_replay_unwraps_full_report(tmp_path, capsys):
    mats = standard_witness(1, 2, QQ)
    p = tmp_path / "full.json"
    p.write_text(
        json.dumps(
            {
                "verdict": "FAIL",
                "reproducer": {
                    "target": "StandardCorollary",
                    "check": "standard_nonzero",
                    "mats": matrices_to_json(mats),
                },
            }
        )
    )
    code, out, _ = run(capsys, ["standard-verify", "--replay", str(p)])
    assert code == EXIT_OK
    assert "PASS" in out


def test_replay_honours_max_dp_k(tmp_path, capsys):
    # A crafted 25-matrix reproducer is refused by the default guard,
    # and --max-dp-k reaches the replay.
    p = tmp_path / "big.json"
    p.write_text(
        json.dumps(
            {
                "target": "StandardCorollary",
                "check": "standard_zero",
                "mats": matrices_to_json([GrMatrix.unit(1, 0, ZZ, 1, 1)] * 25),
            }
        )
    )
    code, out, err = run(capsys, ["standard-verify", "--replay", str(p)])
    assert code == EXIT_USAGE
    assert "grassmat: error" in err
    assert out == ""
    q = tmp_path / "rep.json"
    q.write_text(
        json.dumps(
            {
                "target": "StandardCorollary",
                "check": "standard_nonzero",
                "mats": matrices_to_json(standard_witness(1, 2, QQ)),
            }
        )
    )
    code, _, err = run(capsys, ["standard-verify", "--max-dp-k", "2", "--replay", str(q)])
    assert code == EXIT_USAGE
    assert "grassmat: error" in err


# ------------------------------------------------------------ hostile replay files

def _replay_exit(tmp_path, capsys, reproducer):
    p = tmp_path / "hostile.json"
    p.write_text(json.dumps(reproducer))
    code, out, err = run(capsys, ["ch-verify", "--replay", str(p)])
    assert out == ""
    return code, err


def test_replay_without_target_usage_error(tmp_path, capsys):
    mats = matrices_to_json(standard_witness(1, 2, QQ))
    code, err = _replay_exit(tmp_path, capsys, {"check": "standard_zero", "mats": mats})
    assert code == EXIT_USAGE
    assert "target" in err


def test_replay_without_matrices_usage_error(tmp_path, capsys):
    code, err = _replay_exit(
        tmp_path, capsys, {"target": "StandardCorollary", "check": "standard_zero"}
    )
    assert code == EXIT_USAGE
    assert "'mats'" in err


def test_replay_young_without_elements_usage_error(tmp_path, capsys):
    reproducer = {
        "target": "YoungLemma",
        "check": "young",
        "expect": "zero",
        "classes": [],
        "anticommuting": [],
        "elems": [],
    }
    code, err = _replay_exit(tmp_path, capsys, reproducer)
    assert code == EXIT_USAGE
    assert "nonempty" in err


@pytest.mark.parametrize("exponent", [100000000, -1, 4, "2", True])
def test_replay_exponent_outside_range_usage_error(tmp_path, capsys, exponent):
    # f(A)^(m+1) = 0 once f(A) has no degree-0 part, so m = 2 allows 0..3
    reproducer = {
        "target": "Theorem1",
        "check": "power_zero",
        "exponent": exponent,
        "matrix": GrMatrix.unit(2, 2, ZZ, 1, 1).to_json(),
    }
    code, err = _replay_exit(tmp_path, capsys, reproducer)
    assert code == EXIT_USAGE
    assert "exponent" in err


@pytest.mark.parametrize(
    "parts, code", [([2], EXIT_OK), ([10**9], EXIT_USAGE), ([-2], EXIT_USAGE), ([3], EXIT_USAGE)]
)
def test_replay_capelli_sharp_parts_bounded_by_xs(tmp_path, capsys, parts, code):
    # parts count the generator copies among the 3 x-arguments of the
    # n = 1, m = 2 witness, which bounds the factorials the judge takes
    inputs = capelli_inputs(1, 2, QQ)
    reproducer = {
        "target": "CapelliSharpness",
        "check": "capelli_sharp",
        "xs": matrices_to_json(inputs["xs"]),
        "ys": matrices_to_json(inputs["ys"]),
        "parts": parts,
    }
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(reproducer))
    assert run(capsys, ["capelli-sharp", "--replay", str(p)])[0] == code


@pytest.mark.parametrize(
    "field, value",
    [
        ("mats", {"n": 1}),
        ("mats", [[1, 2]]),
        ("mats", [{"n": 1, "m": 10**9, "ring": "int", "entries": [[[]]]}]),
        ("mats", [{"n": 1, "m": 0, "ring": "int", "entries": [[[[0, 2.5]]]]}]),
        ("mats", [{"n": 1, "m": 0, "ring": "rat", "entries": [[[[0, "1/0"]]]]}]),
        ("check", ["standard_zero"]),
        ("target", "NoSuchTarget"),
    ],
)
def test_replay_malformed_field_usage_error(tmp_path, capsys, field, value):
    reproducer = {
        "target": "StandardCorollary",
        "check": "standard_zero",
        "mats": matrices_to_json([GrMatrix.unit(1, 0, ZZ, 1, 1)] * 2),
    }
    reproducer[field] = value
    code, err = _replay_exit(tmp_path, capsys, reproducer)
    assert code == EXIT_USAGE
    assert "grassmat: error" in err


def test_replay_with_a_fractional_mask_usage_error(tmp_path, capsys):
    # int(1.5) would replay the mask as 1, another matrix than was written
    data = harness._reproducer("CHSharpness", "ch_sharp", ch_inputs(1, 2, QQ))
    data["matrix"]["entries"][0][0][0][0] = 1.5
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, ["ch-sharp", "--replay", str(p)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "mask 1.5 is not an integer" in err


def test_replay_young_bounded_before_hypothesis_check(tmp_path, capsys, monkeypatch):
    # 3,000 commuting elements would cost k(k-1)/2 product pairs in the
    # hypothesis check; the degree guard refuses them first.
    def unreachable(*args):
        raise AssertionError("Young replay started work past the degree guard")

    monkeypatch.setattr(harness, "_young_hypothesis_check", unreachable)
    monkeypatch.setattr(harness, "young_alternating_sum", unreachable)
    k = 3000
    reproducer = {
        "target": "YoungLemma",
        "check": "young",
        "expect": "zero",
        "classes": [[p] for p in range(1, k + 1)],
        "anticommuting": [],
        "elems": matrices_to_json([GrMatrix.unit(1, 0, ZZ, 1, 1)] * k),
    }
    p = tmp_path / "young.json"
    p.write_text(json.dumps(reproducer))
    code, out, err = run(capsys, ["open-search", "--replay", str(p)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "capped at k <= 24, got 3000" in err


@pytest.mark.parametrize("check", ["ch_sharp", "power_zero", "power_nonzero", "lemma2"])
def test_ch_checks_past_rank_cap_fail_fast(tmp_path, capsys, check):
    # f(A)^ceil(m/2) grows about 4x per four generators, so the checks on
    # f(A) refuse a rank above MAX_CH_RANK, in a campaign and in a replay,
    # before any power is taken
    from grassmat.witnesses import MAX_CH_RANK

    m = 36
    assert m > MAX_CH_RANK
    inputs = ch_inputs(1, m, QQ)
    if check.startswith("power"):
        inputs["exponent"] = (m + 1) // 2 + (check == "power_zero")
    target = {"ch_sharp": harness.CH_SHARPNESS, "lemma2": harness.LEMMA2}.get(check, harness.THEOREM1)
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(harness._reproducer(target, check, inputs)))
    runs = [["ch-sharp", "--replay", str(p)]]
    if check == "ch_sharp":
        runs.append(["ch-sharp", "-n", "1", "-m", str(m)])
    for argv in runs:
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert f"rank m <= {MAX_CH_RANK}" in err
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cmd", ["ch-verify", "lemma2"])
def test_ch_campaigns_past_rank_cap_usage_error(capsys, cmd):
    code, _, err = run(capsys, [cmd, "-n", "1", "-m", "36", "--trials", "1"])
    assert code == EXIT_USAGE
    assert "capped at rank" in err
