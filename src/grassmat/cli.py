"""Command-line front end for the verification campaigns.

Each subcommand builds one Campaign, runs it, and emits the Report as a
human-readable table (default) or as canonical JSON.  --output always
writes the JSON serialization, byte-identical to what --format json
prints.  Every target, the sharpness subcommands included, runs its
checks through the registry harness.CHECKS, so a FAIL from a violated
check carries a reproducer.  --replay re-runs a saved reproducer (a
report file works too; its embedded reproducer is used) and exits with
the replayed verdict.

Exit codes: 0 all good (PASS or NO_COUNTEREXAMPLE_IN_BUDGET), 2 an
identity check failed, 3 the open-question search found a
counterexample, 64 usage error, 74 file I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import List, Optional

from .errors import (
    BadCharacteristicError,
    DegreeTooLargeError,
    DuplicateLambdasError,
    GrassmatError,
)
from .harness import (
    AMITSUR_LEVITZKI,
    CAPELLI_BOUND,
    CAPELLI_SHARPNESS,
    CH_SHARPNESS,
    FILTRATION2,
    LEMMA2,
    OPEN_QUESTION,
    STANDARD_COROLLARY,
    STANDARD_PRODUCT,
    STANDARD_SHARPNESS,
    THEOREM1,
    YOUNG_LEMMA,
    TARGETS,
    Campaign,
    degrees_for,
    replay_reproducer,
    run_campaign,
)
from .report import EXIT_IO, EXIT_USAGE, Report
from .ring import QQ, parse_ring

# subcommand -> (target, default --ring, help).  standard-verify and grid
# pick their target with --check and --target; the witness subcommands
# and lemma2 need a field, so they default to rat.
_SUBCOMMANDS = {
    "ch-verify": (THEOREM1, "int", "characteristic polynomial power vanishes on random matrices"),
    "ch-sharp": (CH_SHARPNESS, "rat", "explicit matrix needing the full exponent"),
    "lemma2": (
        LEMMA2, "rat", "degree-0/1/2 structure of f(A) for diagonal-plus-degree-1 matrices"
    ),
    "young": (YOUNG_LEMMA, "int", "alternating sums over product-of-symmetric-group subgroups"),
    "capelli-verify": (
        CAPELLI_BOUND, "int", "bridged alternating sum vanishes at degree n^2 + 2*floor(m/2) + 1"
    ),
    "capelli-sharp": (CAPELLI_SHARPNESS, "rat", "explicit inputs nonzero one degree lower"),
    "standard-verify": (None, "int", "standard identity at the proved degrees"),
    "standard-sharp": (
        STANDARD_SHARPNESS, "rat", "staircase-plus-generators inputs nonzero one degree lower"
    ),
    "al-check": (AMITSUR_LEVITZKI, "int", "standard identity of degree 2n on degree-0 matrices"),
    "open-search": (
        OPEN_QUESTION, "int", "search for a counterexample at degree 2(n + floor(m/2)); never PASS"
    ),
    "grid": (None, "int", "run one target over an (n, m) grid"),
}

_STANDARD_CHECKS = {
    "corollary": STANDARD_COROLLARY,
    "product": STANDARD_PRODUCT,
    "filtration": FILTRATION2,
}

_HEADLINE_DETAILS = ("exponent", "x_degree", "degree", "block_degree")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="grassmat",
        description=(
            "Exact verification of matrix polynomial identities over "
            "Grassmann coefficient algebras."
        ),
    )
    common = _Parser(add_help=False)
    # each integer flag sets the Campaign field of its name and shows its default
    for flag, what in (
        ("-n", "matrix dimension"),
        ("-m", "number of generators"),
        ("--seed", "64-bit campaign seed"),
        ("--trials", "random trials"),
        ("--sparsity", "expected terms per random entry"),
        ("--structured", "structured basis-monomial trials"),
        ("--max-dp-k", "guard for the subset-sum evaluators"),
    ):
        default = getattr(Campaign, flag.lstrip("-").replace("-", "_"))
        common.add_argument(flag, type=int, default=default, help=f"{what} (default %(default)s)")
    common.add_argument(
        "--format", choices=("json", "table"), default="table", help="report format"
    )
    common.add_argument(
        "--output", metavar="PATH", help="also write the JSON report to PATH"
    )
    common.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run a saved reproducer (or a report containing one) and exit",
    )
    # absent, --ring takes the subcommand's default from _SUBCOMMANDS
    common.add_argument(
        "--ring",
        help="coefficient ring: int, rat, or zmod:<p> "
        "(default rat for lemma2 and the -sharp subcommands, else int)",
    )

    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    p = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (_, _, text) in _SUBCOMMANDS.items()
    }
    p["ch-sharp"].add_argument(
        "--lambdas", metavar="LIST", help="comma-separated distinct eigenvalues"
    )
    p["lemma2"].add_argument(
        "--lambdas", metavar="LIST", help="fix the eigenvalues instead of drawing them"
    )
    p["lemma2"].add_argument(
        "--exploratory",
        action="store_true",
        help="also record (non-asserted) observations on fully random matrices",
    )
    p["capelli-sharp"].add_argument(
        "--parts",
        metavar="LIST",
        help="comma-separated even generator counts, one per matrix unit",
    )
    p["standard-verify"].add_argument(
        "--check",
        choices=sorted(_STANDARD_CHECKS),
        default="corollary",
        help="corollary: s_k = 0; product: s_2n-block product; filtration: "
        "s_2n lands in degree >= 2",
    )
    p["open-search"].add_argument(
        "--random-samples",
        type=int,
        default=Campaign.random_samples,
        help="extra random atom tuples after the lexicographic walk (default %(default)s)",
    )
    p["grid"].add_argument("--target", choices=TARGETS, default=THEOREM1)
    p["grid"].add_argument("--n-max", type=int, default=3)
    p["grid"].add_argument("--m-max", type=int, default=5)
    for name in ("open-search", "grid"):
        p[name].add_argument(
            "--budget",
            type=int,
            default=Campaign.budget,
            help="max atom tuples an open-question search considers (default %(default)s)",
        )
    return parser


def _parse_list(args, name: str, parse):
    """The comma-separated values of --<name> through parse; None without it."""
    raw = getattr(args, name, None)
    return None if raw is None else tuple(parse(tok.strip()) for tok in raw.split(","))


def _campaign_from_args(args, target: str) -> Campaign:
    """The Campaign of the parsed flags; a flag the subcommand lacks keeps
    the Campaign default."""
    ring = parse_ring(_SUBCOMMANDS[args.command][1] if args.ring is None else args.ring)
    given = {f.name: getattr(args, f.name) for f in fields(Campaign) if hasattr(args, f.name)}
    given.update(
        target=target,
        ring=ring,
        lambdas=_parse_list(args, "lambdas", ring.parse),
        parts=_parse_list(args, "parts", int),
    )
    return Campaign(**given)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(value, sort_keys=True)


def render_table(report: Report) -> str:
    c = report.campaign
    head = [str(c.get("target", "?"))]
    for key in ("n", "m", "ring"):
        if key in c:
            head.append(f"{key}={c[key]}")
    for d in report.details:
        if d["name"] in _HEADLINE_DETAILS:
            head.append(f"{d['name']}={d['value']}")
            break
    if "trials" in c:
        head.append(f"trials={c['trials']}")
    head.append(report.verdict)
    lines = [" ".join(head)]
    for d in report.details:
        lines.append(f"  {d['name']}: {_format_value(d['value'])}")
    lines.append(f"  elapsed_ms: {report.elapsed_ms}")
    if report.reproducer is not None:
        lines.append("  reproducer: present (re-run with --replay on the JSON report)")
    return "\n".join(lines)


def _emit(args, text: str, table: str) -> None:
    """Print text (the JSON) under --format json, else table; --output
    always gets text."""
    print(text if args.format == "json" else table)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _replay(args) -> Report:
    with open(args.replay, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("replay file nests too deeply") from None
    if isinstance(data, dict) and isinstance(data.get("reproducer"), dict):
        data = data["reproducer"]
    if not isinstance(data, dict) or "check" not in data:
        raise ValueError("replay file holds no reproducer")
    return replay_reproducer(data, max_dp_k=args.max_dp_k)


_GRID_COLUMNS = (
    ("ch_exponent", "ch_exp"),
    ("capelli_x_degree", "capelli_k"),
    ("standard_degree", "std_k"),
    ("standard_product_degree", "prod_k"),
    ("open_question_degree", "open_k"),
    ("witness_degree", "wit_k"),
)


def _grid_point(campaign: Campaign) -> Optional[Report]:
    """The report of one grid point; None (SKIP) if its campaign refuses
    it: past a cap, or over a prime field too small for it (too small a
    characteristic, too few distinct eigenvalues).  A point that needs a
    field reruns over rat."""
    try:
        return run_campaign(campaign)
    except BadCharacteristicError:
        if campaign.ring.is_field():
            return None
        return _grid_point(replace(campaign, ring=QQ))
    except (DegreeTooLargeError, DuplicateLambdasError):
        return None


def _run_grid(args) -> int:
    base = _campaign_from_args(args, args.target)
    replace(base, n=args.n_max, m=args.m_max)  # refuses a bad range before the first point
    ring, target = base.ring, base.target
    rows = []
    worst = 0
    for n in range(1, args.n_max + 1):
        for m in range(0, args.m_max + 1):
            report = _grid_point(replace(base, n=n, m=m))
            verdict = "SKIP" if report is None else report.verdict
            rows.append({"n": n, "m": m, "degrees": degrees_for(n, m), "verdict": verdict})
            worst = max(worst, 0 if report is None else report.exit_code())
    payload = {
        "target": target,
        "ring": ring.name,
        "trials": args.trials,
        "seed": args.seed,
        "rows": rows,
    }
    table = [
        f"grid target={target} ring={ring.name} trials={args.trials} seed={args.seed}",
        "  n  m " + " ".join(f"{short:>9}" for _, short in _GRID_COLUMNS) + "  verdict",
    ]
    for row in rows:
        cells = " ".join(f"{row['degrees'][key]:>9}" for key, _ in _GRID_COLUMNS)
        table.append(f"{row['n']:>3}{row['m']:>3} {cells}  {row['verdict']}")
    _emit(args, json.dumps(payload, indent=2, sort_keys=True), "\n".join(table))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.replay:
            report = _replay(args)
        elif args.command == "grid":
            return _run_grid(args)
        else:
            target = _SUBCOMMANDS[args.command][0] or _STANDARD_CHECKS[args.check]
            report = run_campaign(_campaign_from_args(args, target))
        _emit(args, report.to_json(), render_table(report))
        return report.exit_code()
    except OSError as exc:
        print(f"grassmat: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GrassmatError, ValueError) as exc:
        print(f"grassmat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
