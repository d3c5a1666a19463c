"""Command-line front end: run scenarios and emit verdict records.

One path leads from flags to verdict. argparse rejects unknown scenario
ids, methods and formats; ``main`` checks what argparse cannot (sample
count against method, seed width, node floor) and exits 2 on a usage error.
``execute`` is the only loop over scenarios: it runs each distinct id once,
in sorted order, through ``scenarios.run_scenario``, which alone decides
whether a scenario passed.

Output goes to stdout in one of three formats; a one-line summary goes to
stderr. Numeric fields are printed with 12 significant digits, but pass/fail
is always decided on the unrounded numbers. For a fixed flag set (including
the seed) the output is byte-identical across runs, and the JSON format
re-serializes to the same bytes after a parse round trip.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import haar, scenarios

#: Record fields, in output order, for the JSON and table formats.
RECORD_FIELDS = (
    "scenario",
    "mode",
    "analytic",
    "paper_value",
    "mc_estimate",
    "mc_stderr",
    "cross_talk",
    "pass",
    "citation",
)

#: Fixed CSV header; kept stable for downstream parsing.
CSV_HEADER = "scenario,mode,method,analytic,paper_value,mc_estimate,mc_stderr,cross_talk,pass"


def _check_args(args) -> str | None:
    """Return an error message for flag values argparse cannot check, else None."""
    if args.samples < 0:
        return "--samples must be nonnegative"
    if args.method == "monte_carlo" and args.samples == 0:
        return "--method monte_carlo requires --samples N with N > 0"
    if args.method != "monte_carlo" and args.samples > 0:
        return "--samples is only meaningful with --method monte_carlo"
    if not 0 <= args.seed < 2**64:
        return "--seed must fit in 64 bits"
    if args.nodes < 8:
        return "--nodes must be at least 8"
    return None


def execute(ids, method="design", samples=0, seed=0, nodes=haar.DEFAULT_NODES) -> tuple:
    """Run each distinct scenario id in sorted order; returns (records, all_passed)."""
    records = []
    for sid in sorted(set(ids)):
        result = scenarios.run_scenario(
            scenarios.build_scenario(sid),
            method=method,
            mc_samples=samples,
            seed=seed,
            nodes=nodes,
        )
        records.append(
            {
                "scenario": result.scenario_id,
                "mode": result.mode,
                "method": result.method,
                "analytic": result.analytic,
                "paper_value": result.paper_value,
                "mc_estimate": result.mc_estimate,
                "mc_stderr": result.mc_stderr,
                "cross_talk": result.cross_talk,
                "pass": result.passed,
                "citation": result.citation,
            }
        )
    return records, all(rec["pass"] for rec in records)


def _fmt_number(value) -> str:
    return "%.12g" % float(value)


def render_json(records) -> str:
    """Serialize records with a fixed key order and 12-digit numbers.

    Parsing the output and feeding it back through this function returns the
    same bytes: 12 significant decimal digits survive a float round trip.
    """
    lines = []
    for rec in records:
        parts = []
        for key in RECORD_FIELDS:
            value = rec[key]
            if value is None:
                text = "null"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, (int, float)):
                text = _fmt_number(value)
            else:
                text = json.dumps(value, ensure_ascii=False)
            parts.append(f'"{key}": {text}')
        lines.append("  {" + ", ".join(parts) + "}")
    return "[\n" + ",\n".join(lines) + "\n]"


def render_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        cells = []
        for key in CSV_HEADER.split(","):
            value = rec[key]
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, (int, float)):
                cells.append(_fmt_number(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines)


def render_table(records) -> str:
    def cell(rec, key):
        value = rec[key]
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "pass" if value else "FAIL"
        if isinstance(value, (int, float)):
            return _fmt_number(value)
        return str(value)

    rows = [list(RECORD_FIELDS)] + [
        [cell(rec, key) for key in RECORD_FIELDS] for rec in records
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(RECORD_FIELDS))]
    out = []
    for r, row in enumerate(rows):
        out.append("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


_RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxdisc",
        description=(
            "Run program-box discrimination scenarios and report analytic, "
            "reference and (optionally) Monte Carlo figures."
        ),
    )
    select = parser.add_mutually_exclusive_group()
    select.add_argument("--all", action="store_true", help="run every scenario")
    select.add_argument(
        "--scenario",
        action="append",
        choices=scenarios.SCENARIO_IDS,
        metavar="ID",
        help="scenario id to run (repeatable); see --list",
    )
    parser.add_argument(
        "--method",
        choices=("design", "quadrature", "monte_carlo"),
        default="design",
        help="averaging engine (default: design)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=0,
        metavar="N",
        help="Monte Carlo sample count (required with --method monte_carlo)",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="N", help="Monte Carlo seed")
    parser.add_argument(
        "--nodes",
        type=int,
        default=haar.DEFAULT_NODES,
        metavar="N",
        help=f"quadrature nodes per angle, at least 8 (default: {haar.DEFAULT_NODES})",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print scenario ids with citations and exit"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)

    if args.list:
        for sid in scenarios.SCENARIO_IDS:
            print(f"{sid}: {scenarios.reference_citation(sid)}")
        return 0
    if not args.all and not args.scenario:
        parser.print_usage(sys.stderr)
        print("boxdisc: error: select scenarios with --all or --scenario", file=sys.stderr)
        return 2

    problem = _check_args(args)
    if problem is not None:
        parser.print_usage(sys.stderr)
        print(f"boxdisc: error: {problem}", file=sys.stderr)
        return 2

    records, all_passed = execute(
        scenarios.SCENARIO_IDS if args.all else args.scenario,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
        nodes=args.nodes,
    )
    print(_RENDERERS[args.format](records))
    n_pass = sum(1 for r in records if r["pass"])
    print(f"{n_pass}/{len(records)} scenarios passed", file=sys.stderr)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
