"""The benchmark's workloads and the gate that checks every verdict.

A workload is a fixed list of steps.  Each step is one `grassmat`
command line, run in-process through `grassmat.cli.main` with
`--format json`, the way a user runs it.  The workload seed becomes the
campaign seed of every step and fixes the order of the replay fixture,
so the same seed gives the same inputs.

Importing this module imports grassmat, so the benchmark imports it
inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from typing import Dict, List, Optional

import grassmat.cli
from grassmat.gmatrix import GrMatrix, matrices_to_json
from grassmat.grassmann import GrassmannElem
from grassmat.identities import standard_naive
from grassmat.report import (
    COUNTEREXAMPLE_FOUND,
    NO_COUNTEREXAMPLE_IN_BUDGET,
    PASS,
    Report,
)
from grassmat.ring import ZZ

VERIFY = "verify"  # must PASS
SEARCH = "search"  # NO_COUNTEREXAMPLE_IN_BUDGET, or a counterexample that replays
EXHAUSTIVE = "exhaustive"  # a search that must also report exhausted: true
REPLAY = "replay"  # replays the fixture: must exit 3 with the oracle's value

# Sizes were set so that one pass takes about 2-5 s on a 2-CPU x86 machine
# with Python 3.11; see BENCHMARK.json for why each workload exists.
FULL = {
    "standard-dense": [
        # s_12 on dense random 3x3 inputs: mul_into-bound subset DP
        (VERIFY, "standard-verify --check corollary -n 3 -m 2 --ring zmod:7 --trials 2 --structured 5"),
        # s_6 on dense degree-0 inputs, k <= the naive cap: trial 0 runs the
        # k! oracle cross-check, whose cost does not depend on the seed
        (VERIFY, "al-check -n 3 -m 2 --ring zmod:7 --trials 1"),
    ],
    "capelli-atoms": [
        (VERIFY, "capelli-verify -n 2 -m 4 --ring int --trials 1 --structured 150"),
    ],
    "open-search": [
        (EXHAUSTIVE, "open-search -n 2 -m 3 --budget 1000000 --random-samples 100"),
        (SEARCH, "open-search -n 3 -m 2 --budget 100000"),
        (REPLAY, "open-search --replay {fixture}"),
    ],
    "ch-dense-rat": [
        # 128 draws over 64 masks: entries near-dense, so the cost of a
        # trial barely depends on the seed
        (VERIFY, "ch-verify -n 4 -m 6 --ring rat --sparsity 128 --trials 2"),
    ],
}

SMOKE = {
    "standard-dense": [
        (VERIFY, "standard-verify --check corollary -n 1 -m 2 --ring zmod:7 --trials 1 --structured 3"),
    ],
    "capelli-atoms": [
        (VERIFY, "capelli-verify -n 1 -m 2 --ring int --trials 1 --structured 10"),
    ],
    "open-search": [
        (EXHAUSTIVE, "open-search -n 1 -m 2 --budget 100"),
        (SEARCH, "open-search -n 2 -m 1 --budget 20"),
        (REPLAY, "open-search --replay {fixture}"),
    ],
    "ch-dense-rat": [
        (VERIFY, "ch-verify -n 2 -m 2 --ring rat --sparsity 4 --trials 1"),
    ],
}

WORKLOADS = tuple(FULL)


def fixture_mats(smoke: bool, seed: int) -> List[GrMatrix]:
    """Atom matrices with s_k != 0, in an order drawn from the seed.

    Full size: the known (n, m) = (3, 2) counterexample to the open
    question, s_8(e11, e12, e13, e21, e22, e23, v1*e11, v2*e31) =
    4*v1v2*e23.  Smoke size: the staircase s_3(e12, e22, e21) =
    e11 + 2*e22.  Reordering only flips the sign of the value.
    """
    if smoke:
        n, m, units, gens = 2, 2, [(1, 2), (2, 2), (2, 1)], [0, 0, 0]
    else:
        n, m = 3, 2
        units = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (1, 1), (3, 1)]
        gens = [0, 0, 0, 0, 0, 0, 1, 2]
    mats = []
    for (r, s), g in zip(units, gens):
        unit = GrMatrix.unit(n, m, ZZ, r, s)
        mats.append(unit.scale(GrassmannElem.generator(g, m, ZZ)) if g else unit)
    random.Random(seed).shuffle(mats)
    return mats


@dataclasses.dataclass
class Step:
    kind: str
    label: str  # the command line as in the workload table
    argv: List[str]


@dataclasses.dataclass
class Outcome:
    """What one step left behind: exit code, stdout, or the exception."""

    rc: Optional[int]
    stdout: str
    error: Optional[str] = None

    def report(self) -> dict:
        return json.loads(self.stdout)


@dataclasses.dataclass
class Plan:
    steps: List[Step]
    fixture: Optional[List[GrMatrix]] = None
    fixture_value: Optional[str] = None

    def run(self) -> List[Outcome]:
        """Run every step in order; this is the timed pass."""
        return [run_cli(step.argv) for step in self.steps]


def build_plan(workload: str, seed: int, smoke: bool, workdir: str) -> Plan:
    """The campaign list of a workload, with its fixture written to workdir."""
    table = SMOKE if smoke else FULL
    if workload not in table:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    plan = Plan(steps=[])
    for kind, template in table[workload]:
        argv = template.split()
        if kind == REPLAY:
            plan.fixture = fixture_mats(smoke, seed)
            path = os.path.join(workdir, "fixture.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "target": "OpenQuestion",
                        "check": "standard_zero",
                        "mats": matrices_to_json(plan.fixture),
                    },
                    fh,
                )
            argv = [path if a == "{fixture}" else a for a in argv]
        plan.steps.append(Step(kind, template, argv + ["--seed", str(seed), "--format", "json"]))
    return plan


def run_cli(argv: List[str]) -> Outcome:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            # looked up on every call, so a traced run sees the wrapped main
            rc = grassmat.cli.main(argv)
    except Exception as exc:  # a crash is a failed check; the run goes on
        return Outcome(None, buf.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(rc, buf.getvalue())


def report_digest(report: dict) -> str:
    """sha256 of Report.to_json(include_elapsed=False) for a parsed report."""
    names = {f.name for f in dataclasses.fields(Report)}
    rep = Report(**{k: v for k, v in report.items() if k in names})
    return hashlib.sha256(rep.to_json(include_elapsed=False).encode()).hexdigest()


class Gate:
    """Counts checks attempted and failed, keeping a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_oracle(plan: Plan, gate: Gate) -> None:
    """standard_naive on the fixture must be nonzero; its value is what
    every replay of the fixture has to reproduce.  Runs outside the
    timed passes."""
    if plan.fixture is None:
        return
    try:
        value = standard_naive(plan.fixture)
    except Exception as exc:  # reported as a failed check
        gate.check(False, f"fixture oracle raised {type(exc).__name__}: {exc}")
        return
    plan.fixture_value = value.compact_str()
    gate.check(not value.is_zero(), "fixture oracle: standard_naive is zero")


def _replay_reproducer(reproducer: dict, workdir: str) -> Outcome:
    path = os.path.join(workdir, "found.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reproducer, fh)
    return run_cli(["open-search", "--replay", path, "--format", "json"])


def _parsed(out: Outcome):
    """(verdict, details by name), or None when the step left no report."""
    if out.error is not None:
        return None
    try:
        rep = out.report()
    except ValueError:
        return None
    return rep.get("verdict"), {d["name"]: d["value"] for d in rep.get("details", [])}


def _step_problem(step: Step, out: Outcome, plan: Plan, workdir: str) -> Optional[str]:
    """Why a step's outcome is wrong, or None when it is right."""
    parsed = _parsed(out)
    if parsed is None:
        return out.error or f"exit {out.rc} without a JSON report"
    verdict, details = parsed
    if step.kind == VERIFY:
        if verdict != PASS or out.rc != 0:
            return f"verdict {verdict}, exit {out.rc}"
    elif step.kind in (SEARCH, EXHAUSTIVE):
        if verdict == NO_COUNTEREXAMPLE_IN_BUDGET and out.rc == 0:
            if step.kind == EXHAUSTIVE and details.get("exhausted") is not True:
                return "search stopped before exhausting its space"
        elif verdict == COUNTEREXAMPLE_FOUND and out.rc == 3:
            again = _replay_reproducer(out.report().get("reproducer") or {}, workdir)
            replayed = _parsed(again)
            found = details.get("counterexample_value")
            if again.rc != 3 or replayed is None or replayed[1].get("value") != found:
                return f"found counterexample {found} does not replay (exit {again.rc})"
        else:
            return f"verdict {verdict}, exit {out.rc}"
    elif step.kind == REPLAY:
        if verdict != COUNTEREXAMPLE_FOUND or out.rc != 3:
            return f"fixture replays to {verdict}, exit {out.rc}"
        if details.get("value") != plan.fixture_value:
            return f"fixture replays to {details.get('value')}, oracle {plan.fixture_value}"
    return None


def check_pass(
    plan: Plan, outcomes: List[Outcome], gate: Gate, digests: Dict[str, str], workdir: str
) -> None:
    """One check per step: right verdict, and a report byte-identical
    (apart from elapsed_ms) to the same step's report in the first pass."""
    for step, out in zip(plan.steps, outcomes):
        problem = _step_problem(step, out, plan, workdir)
        if problem is None:
            digest = report_digest(out.report())
            first = digests.setdefault(step.label, digest)
            if digest != first:
                problem = "report differs from the first pass"
        gate.check(problem is None, f"{step.label}: {problem}")


def search_counts(plan: Plan, outcomes: List[Outcome]) -> Dict[str, int]:
    """Tuples considered, evaluated and pruned, summed over search steps."""
    totals = {"tuples_considered": 0, "tuples_evaluated": 0, "tuples_pruned": 0}
    for step, out in zip(plan.steps, outcomes):
        if step.kind not in (SEARCH, EXHAUSTIVE) or out.error is not None:
            continue
        try:
            details = out.report().get("details", [])
        except ValueError:
            continue
        for d in details:
            if d["name"] in totals:
                totals[d["name"]] += d["value"]
    return totals
