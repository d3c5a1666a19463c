"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "boxdisc").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "boxdisc"}


def _imported_roots(path: Path) -> set:
    """Top-level names of every absolute import in one module, nested ones included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "haar.py", "scenarios.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert _imported_roots(path) <= ALLOWED, sorted(_imported_roots(path) - ALLOWED)


def test_scan_sees_a_stray_import(tmp_path):
    module = tmp_path / "stray.py"
    module.write_text("import os\nfrom . import haar\n\ndef f():\n    from scipy import linalg\n")
    assert _imported_roots(module) - ALLOWED == {"scipy"}
