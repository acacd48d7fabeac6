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

from .errors import GrassmatError
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
    dp_degree,
    replay_reproducer,
    run_campaign,
)
from .report import EXIT_IO, EXIT_USAGE, Report
from .ring import QQ, parse_ring

_SUBCOMMAND_TARGETS = {
    "ch-verify": THEOREM1,
    "ch-sharp": CH_SHARPNESS,
    "lemma2": LEMMA2,
    "young": YOUNG_LEMMA,
    "capelli-verify": CAPELLI_BOUND,
    "capelli-sharp": CAPELLI_SHARPNESS,
    "standard-sharp": STANDARD_SHARPNESS,
    "al-check": AMITSUR_LEVITZKI,
    "open-search": OPEN_QUESTION,
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
    # --ring lives in its own parent per default value: set_defaults on a
    # subparser would mutate the action shared through parents= and
    # silently change the default for every other subcommand.
    ring_int = _Parser(add_help=False)
    ring_int.add_argument(
        "--ring", default="int", help="coefficient ring: int, rat, or zmod:<p>"
    )
    ring_rat = _Parser(add_help=False)
    ring_rat.add_argument(
        "--ring", default="rat", help="coefficient ring: int, rat, or zmod:<p>"
    )
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

    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser(
        "ch-verify",
        parents=[common, ring_int],
        help="characteristic polynomial power vanishes on random matrices",
    )

    p = sub.add_parser(
        "ch-sharp",
        parents=[common, ring_rat],
        help="explicit matrix needing the full exponent",
    )
    p.add_argument(
        "--lambdas", metavar="LIST", help="comma-separated distinct eigenvalues"
    )

    p = sub.add_parser(
        "lemma2",
        parents=[common, ring_rat],
        help="degree-0/1/2 structure of f(A) for diagonal-plus-degree-1 matrices",
    )
    p.add_argument(
        "--lambdas", metavar="LIST", help="fix the eigenvalues instead of drawing them"
    )
    p.add_argument(
        "--exploratory",
        action="store_true",
        help="also record (non-asserted) observations on fully random matrices",
    )

    p = sub.add_parser(
        "young",
        parents=[common, ring_int],
        help="alternating sums over product-of-symmetric-group subgroups",
    )

    p = sub.add_parser(
        "capelli-verify",
        parents=[common, ring_int],
        help="bridged alternating sum vanishes at degree n^2 + 2*floor(m/2) + 1",
    )

    p = sub.add_parser(
        "capelli-sharp",
        parents=[common, ring_rat],
        help="explicit inputs nonzero one degree lower",
    )
    p.add_argument(
        "--parts",
        metavar="LIST",
        help="comma-separated even generator counts, one per matrix unit",
    )

    p = sub.add_parser(
        "standard-verify",
        parents=[common, ring_int],
        help="standard identity at the proved degrees",
    )
    p.add_argument(
        "--check",
        choices=sorted(_STANDARD_CHECKS),
        default="corollary",
        help="corollary: s_k = 0; product: s_2n-block product; filtration: "
        "s_2n lands in degree >= 2",
    )

    p = sub.add_parser(
        "standard-sharp",
        parents=[common, ring_rat],
        help="staircase-plus-generators inputs nonzero one degree lower",
    )

    p = sub.add_parser(
        "al-check",
        parents=[common, ring_int],
        help="standard identity of degree 2n on degree-0 matrices",
    )

    p = sub.add_parser(
        "open-search",
        parents=[common, ring_int],
        help="search for a counterexample at degree 2(n + floor(m/2)); never PASS",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=Campaign.budget,
        help="max atom tuples considered (default %(default)s)",
    )
    p.add_argument(
        "--random-samples",
        type=int,
        default=Campaign.random_samples,
        help="extra random atom tuples after the lexicographic walk (default %(default)s)",
    )

    p = sub.add_parser(
        "grid", parents=[common, ring_int], help="run one target over an (n, m) grid"
    )
    p.add_argument("--target", choices=TARGETS, default=THEOREM1)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument(
        "--budget",
        type=int,
        default=Campaign.budget,
        help="budget for open-question rows (default %(default)s)",
    )

    return parser


def _parse_list(args, name: str, parse):
    """The comma-separated values of --<name> through parse; None without it."""
    raw = getattr(args, name, None)
    return None if raw is None else tuple(parse(tok.strip()) for tok in raw.split(","))


def _campaign_from_args(args, target: str) -> Campaign:
    """The Campaign of the parsed flags; a flag the subcommand lacks keeps
    the Campaign default."""
    ring = parse_ring(args.ring)
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


def emit_report(report: Report, fmt: str, path: Optional[str]) -> None:
    text = report.to_json()
    if fmt == "json":
        print(text)
    else:
        print(render_table(report))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _run_replay(args) -> int:
    with open(args.replay, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("reproducer"), dict):
        data = data["reproducer"]
    if not isinstance(data, dict) or "check" not in data:
        raise ValueError("replay file holds no reproducer")
    report = replay_reproducer(data, max_dp_k=args.max_dp_k)
    emit_report(report, args.format, args.output)
    return report.exit_code()


_GRID_COLUMNS = (
    ("ch_exponent", "ch_exp"),
    ("capelli_x_degree", "capelli_k"),
    ("standard_degree", "std_k"),
    ("standard_product_degree", "prod_k"),
    ("open_question_degree", "open_k"),
    ("witness_degree", "wit_k"),
)


def _run_grid(args) -> int:
    base = _campaign_from_args(args, args.target)
    ring, target = base.ring, base.target
    rows = []
    worst = 0
    for n in range(1, args.n_max + 1):
        for m in range(0, args.m_max + 1):
            degs = degrees_for(n, m)
            if dp_degree(target, n, m) > args.max_dp_k:
                rows.append({"n": n, "m": m, "degrees": degs, "verdict": "SKIP"})
                continue
            campaign = replace(base, n=n, m=m)
            try:
                report = run_campaign(campaign)
            except GrassmatError:
                if ring.is_field():
                    raise
                # witness targets need a field; rerun the point over rat
                report = run_campaign(replace(campaign, ring=QQ))
            rows.append({"n": n, "m": m, "degrees": degs, "verdict": report.verdict})
            worst = max(worst, report.exit_code())
    payload = {
        "target": target,
        "ring": ring.name,
        "trials": args.trials,
        "seed": args.seed,
        "rows": rows,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.format == "json":
        print(text)
    else:
        print(f"grid target={target} ring={ring.name} trials={args.trials} seed={args.seed}")
        header = "  n  m " + " ".join(f"{short:>9}" for _, short in _GRID_COLUMNS)
        print(header + "  verdict")
        for row in rows:
            cells = " ".join(
                f"{row['degrees'][key]:>9}" for key, _ in _GRID_COLUMNS
            )
            print(f"{row['n']:>3}{row['m']:>3} {cells}  {row['verdict']}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "replay", None):
            return _run_replay(args)
        if args.command == "grid":
            return _run_grid(args)
        if args.command == "standard-verify":
            target = _STANDARD_CHECKS[args.check]
        else:
            target = _SUBCOMMAND_TARGETS[args.command]
        campaign = _campaign_from_args(args, target)
        report = run_campaign(campaign)
        emit_report(report, args.format, args.output)
        return report.exit_code()
    except OSError as exc:
        print(f"grassmat: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GrassmatError, ValueError) as exc:
        print(f"grassmat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
