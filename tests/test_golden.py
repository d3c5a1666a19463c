"""CLI output pinned byte for byte against files in tests/golden/.

Each case runs ``cli.main`` in process and compares its stdout, its stderr
and its exit code with the stored ones. A change that alters any of them is
a deliberate output change: regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and name the change where it is recorded.
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from boxdisc import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Golden file stem -> CLI arguments.
CASES = {
    "list": ["--list"],
    "design-json": ["--all", "--format", "json"],
    "design-csv": ["--all", "--format", "csv"],
    "design-table": ["--all", "--format", "table"],
    "quadrature-nodes7-json": ["--all", "--method", "quadrature", "--nodes", "7", "--format", "json"],
    "quadrature-nodes7-csv": ["--all", "--method", "quadrature", "--nodes", "7", "--format", "csv"],
    "montecarlo-3000-seed7-json": [
        "--all", "--method", "monte_carlo", "--samples", "3000", "--seed", "7", "--format", "json",
    ],
    "montecarlo-3000-seed7-csv": [
        "--all", "--method", "monte_carlo", "--samples", "3000", "--seed", "7", "--format", "csv",
    ],
    "montecarlo-10-seed2-table": [
        "--all", "--method", "monte_carlo", "--samples", "10", "--seed", "2", "--format", "table",
    ],
    "subset-dup-table": [
        "--scenario", "two-ref-singlet", "--scenario", "one-ref-minerror",
        "--scenario", "two-ref-singlet", "--format", "table",
    ],
    "usage-samples-one": ["--all", "--method", "monte_carlo", "--samples", "1"],
}


def run_cli(argv) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of one in-process cli.main call.

    argparse wraps the usage line to the terminal width, so the width is
    pinned to 80 columns here.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name):
    code, out, err = run_cli(CASES[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out, err = run_cli(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
