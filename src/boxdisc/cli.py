"""Command-line front end: run scenarios and emit verdict records.

One path leads from flags to verdict. argparse rejects unknown scenario
ids, methods and formats; ``main`` checks what argparse cannot (sample
count against method, seed width, node range from ``haar.MIN_NODES`` to
``haar.MAX_NODES``) and exits 2 on a usage error. The parser is built once
per process and shared by every ``main`` call. ``execute`` is the only loop
over scenarios: it builds each distinct id once, in sorted order, and runs
them as one batch through ``scenarios.run_scenarios``, which alone decides
whether a scenario passed, averages each distinct (state, pattern) once and
draws the Monte Carlo samples once for the whole batch.

Output goes to stdout in one of three formats; a one-line summary goes to
stderr. Numeric fields are printed with 12 significant digits, and
``cross_talk`` is first rounded to 1e-12 absolute, so its rounding noise
prints as 0 on every BLAS kernel while a failing value still shows; pass/fail
is always decided on the unrounded numbers. For a fixed flag set (including
the seed) the output is byte-identical across runs, and the JSON format
re-serializes to the same bytes after a parse round trip.
"""

from __future__ import annotations

import argparse
import functools
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
    if args.samples == 1:
        return "--samples must be at least 2: one sample has no error bar"
    if not 0 <= args.seed < 2**64:
        return "--seed must fit in 64 bits"
    if args.nodes < haar.MIN_NODES:
        return f"--nodes must be at least {haar.MIN_NODES}"
    if args.nodes > haar.MAX_NODES:
        return f"--nodes must be at most {haar.MAX_NODES}"
    return None


def execute(ids, method="design", samples=0, seed=0, nodes=haar.MIN_NODES) -> tuple:
    """Run each distinct scenario id in sorted order; returns (records, all_passed).

    monte_carlo runs the design engine plus the sampled cross-check; the
    records name the method as given.
    """
    batch = [scenarios.build_scenario(sid) for sid in sorted(set(ids))]
    engine = "quadrature" if method == "quadrature" else "design"
    results = scenarios.run_scenarios(
        batch, method=engine, mc_samples=samples, seed=seed, nodes=nodes
    )
    records = [
        {
            "scenario": result.scenario.id,
            "mode": result.scenario.mode,
            "method": method,
            "analytic": result.analytic,
            "paper_value": result.scenario.paper_value,
            "mc_estimate": result.mc_estimate,
            "mc_stderr": result.mc_stderr,
            "cross_talk": None if result.cross_talk is None else round(result.cross_talk, 12),
            "pass": result.passed,
            "citation": result.scenario.citation,
        }
        for result in results
    ]
    return records, all(rec["pass"] for rec in records)


def _fmt_number(value) -> str:
    return "%.12g" % float(value)


def _cell(value, none: str, true: str, false: str, text=str) -> str:
    """One output field, the same switch for every format.

    None and booleans are spelled as the format asks, numbers get 12
    significant digits, and strings go through ``text``.
    """
    if value is None:
        return none
    if isinstance(value, bool):
        return true if value else false
    if isinstance(value, (int, float)):
        return _fmt_number(value)
    return text(value)


def render_json(records) -> str:
    """Serialize records with a fixed key order and 12-digit numbers.

    Parsing the output and feeding it back through this function returns the
    same bytes: 12 significant decimal digits survive a float round trip.
    """
    json_string = functools.partial(json.dumps, ensure_ascii=False)
    lines = []
    for rec in records:
        parts = [
            f'"{key}": {_cell(rec[key], "null", "true", "false", json_string)}'
            for key in RECORD_FIELDS
        ]
        lines.append("  {" + ", ".join(parts) + "}")
    return "[\n" + ",\n".join(lines) + "\n]"


def render_csv(records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        cells = [_cell(rec[key], "", "true", "false") for key in CSV_HEADER.split(",")]
        lines.append(",".join(cells))
    return "\n".join(lines)


def render_table(records) -> str:
    rows = [list(RECORD_FIELDS)] + [
        [_cell(rec[key], "-", "pass", "FAIL") for key in RECORD_FIELDS] for rec in records
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(RECORD_FIELDS))]
    out = []
    for r, row in enumerate(rows):
        out.append("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


_RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after.

    It depends on no argument, and parse_args leaves it unchanged.
    """
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
        default=haar.MIN_NODES,
        metavar="N",
        help=(
            f"quadrature nodes per angle, from {haar.MIN_NODES} to {haar.MAX_NODES} "
            f"(default: {haar.MIN_NODES})"
        ),
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
