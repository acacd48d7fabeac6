"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_source_tree()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1):
    """One smoke-size run in a fresh process, as the benchmark is run."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.SMOKE) == set(workloads.FULL)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.LAYERS
    ]
    for *_, on in tracing.LAYERS:
        assert set(on.split()) <= set(workloads.WORKLOADS) | {"all"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_gate(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [name for name, unit, *_ in tracing.LAYERS if unit in tracing.EXACT_UNITS]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
    # every count a workload is listed for shows work on that workload
    for name, unit, _, _, on in tracing.LAYERS:
        if unit in ("count", "bytes") and (workload in on.split() or on == "all"):
            assert first["metrics"][name]["value"] > 0, name


def _zero_standard_dp(mats, **_):
    first = mats[0]
    return type(first).zero(first.n, first.m, first.ring)


@pytest.mark.parametrize(
    "workload, failure",
    [("open-search", "fixture replays"), ("standard-dense", "verdict FAIL")],
)
def test_gate_catches_a_zeroed_standard_dp(workload, failure):
    import grassmat.identities

    undo = tracing.rebind(grassmat.identities.standard_dp, _zero_standard_dp)
    try:
        result, info = run.run_benchmark(workload, 1, 0, False, True)
    finally:
        tracing.unpatch(undo)
    assert result["correct"] is False and result["failed"] >= 1
    assert any(failure in note for note in info["failures"]), info["failures"]


@pytest.mark.parametrize(
    "value, accepted", [("[[1, 0]; [0, 2]]", True), ("[[1, 0]; [0, 1]]", False)]
)
def test_gate_takes_a_found_counterexample_only_if_it_replays(tmp_path, value, accepted):
    from grassmat.gmatrix import GrMatrix, matrices_to_json
    from grassmat.ring import ZZ

    # s_3(e12, e22, e21) = e11 + 2*e22
    mats = [GrMatrix.unit(2, 2, ZZ, r, s) for r, s in ((1, 2), (2, 2), (2, 1))]
    report = {
        "verdict": "COUNTEREXAMPLE_FOUND",
        "details": [{"name": "counterexample_value", "value": value}],
        "reproducer": {
            "target": "OpenQuestion",
            "check": "standard_zero",
            "mats": matrices_to_json(mats),
        },
    }
    step = workloads.Step(workloads.SEARCH, "open-search", [])
    plan = workloads.Plan([step])
    out = workloads.Outcome(3, json.dumps(report))
    problem = workloads._step_problem(step, out, plan, str(tmp_path))
    assert (problem is None) is accepted, problem


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "open-search",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
