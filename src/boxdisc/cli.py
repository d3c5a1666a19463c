"""Command-line front end: run scenarios and emit verdict records.

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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CliConfig:
    """Validated run configuration assembled from the flags."""

    scenario_ids: object  # explicit list of ids, or the string "all"
    method: str = "design"
    samples: int = 0
    seed: int = 0
    quadrature_nodes: int = haar.DEFAULT_NODES
    format: str = "table"
    tolerance_overrides: dict | None = None

    def selected_ids(self) -> list:
        if self.scenario_ids == "all":
            return list(scenarios.SCENARIO_IDS)
        return list(self.scenario_ids)


def _check_config(config: CliConfig) -> str | None:
    """Return an error message for an invalid configuration, else None."""
    if config.method not in ("design", "quadrature", "monte_carlo"):
        return f"unknown method {config.method!r}"
    if config.samples < 0:
        return "--samples must be nonnegative"
    if config.method == "monte_carlo" and config.samples == 0:
        return "--method monte_carlo requires --samples N with N > 0"
    if config.method != "monte_carlo" and config.samples > 0:
        return "--samples is only meaningful with --method monte_carlo"
    if not 0 <= config.seed < 2**64:
        return "--seed must fit in 64 bits"
    if config.quadrature_nodes < 8:
        return "--nodes must be at least 8"
    if config.format not in ("json", "csv", "table"):
        return f"unknown format {config.format!r}"
    unknown = set(scenarios.SCENARIO_IDS)
    if config.scenario_ids != "all":
        bad = sorted(set(config.scenario_ids) - unknown)
        if bad:
            return (
                f"unknown scenario id(s) {', '.join(bad)}; "
                f"known: {', '.join(scenarios.SCENARIO_IDS)}"
            )
    overrides = config.tolerance_overrides or {}
    if not set(overrides) <= {"pass", "mc_sigma"}:
        return f"unknown tolerance overrides {sorted(set(overrides) - {'pass', 'mc_sigma'})}"
    return None


def execute(config: CliConfig) -> tuple:
    """Run the selected scenarios; returns (records, all_passed)."""
    overrides = config.tolerance_overrides or {}
    pass_tol = float(overrides.get("pass", scenarios.PASS_TOL))
    mc_sigma = float(overrides.get("mc_sigma", scenarios.MC_SIGMA))
    records = []
    all_passed = True
    for sid in sorted(set(config.selected_ids())):
        result = scenarios.run_scenario(
            scenarios.build_scenario(sid),
            method=config.method,
            mc_samples=config.samples,
            seed=config.seed,
            nodes=config.quadrature_nodes,
            pass_tol=pass_tol,
            mc_sigma=mc_sigma,
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
        all_passed = all_passed and result.passed
    return records, all_passed


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

    config = CliConfig(
        scenario_ids="all" if args.all else list(args.scenario),
        method=args.method,
        samples=args.samples,
        seed=args.seed,
        quadrature_nodes=args.nodes,
        format=args.format,
    )
    problem = _check_config(config)
    if problem is not None:
        parser.print_usage(sys.stderr)
        print(f"boxdisc: error: {problem}", file=sys.stderr)
        return 2

    records, all_passed = execute(config)
    print(_RENDERERS[config.format](records))
    n_pass = sum(1 for r in records if r["pass"])
    print(f"{n_pass}/{len(records)} scenarios passed", file=sys.stderr)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
