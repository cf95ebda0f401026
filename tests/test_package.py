"""The public names of the package: tamari.__all__ is exactly the frozen
list of 38 names, and each one resolves on the package; importing the
command line loads no dataclasses machinery (its records are named
tuples), and no command loads hashlib or OpenSSL's _hashlib, not even the
suite that checks the quartic; tamari.series, which only solves and
checks, imports no enumerating module, and tamari.equations, which holds
its data as literals, imports nothing but tamari.polys."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tamari

PUBLIC_NAMES = """
    BudgetExceeded DiagonalFace EdgeClassification StatTable TruncatedSeries
    ZPolynomial __version__ a_formula all_trees asc b_formula canopy catalan
    classify_edges decomposition_report des diagonal_faces diagonal_fvector
    dyck_to_tree ell fuss_catalan interval_count interval_count_formula
    interval_histogram intervals internal_fvector is_internal_face
    m_tamari_elements m_tamari_intervals m_tamari_intervals_formula
    new_interval_formula newton_solve parse_tree quartic_equation serialize
    synchronized_formula tamari_leq tree_to_dyck
""".split()


def test_public_names_are_frozen():
    assert len(PUBLIC_NAMES) == 38
    assert tamari.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(tamari, name), name


def test_cli_import_skips_dataclasses():
    # a fresh interpreter, so no other test's imports are counted
    code = ("import sys, tamari.cli\n"
            "print('dataclasses' in sys.modules)")
    src = str(Path(tamari.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["False"]


def test_cli_loads_no_hashlib():
    # a table, and the suite that checks the quartic, both leave OpenSSL
    # unloaded
    code = ("import contextlib, io, sys\n"
            "from tamari.cli import main\n"
            "for argv in (['table', 'm-stats', '--nmax', '3', '--mmax', '2'],"
            " ['verify', 'polynomial', '--order', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    print(status, 'hashlib' in sys.modules,"
            " '_hashlib' in sys.modules)")
    src = str(Path(tamari.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["0", "False", "False", "0", "False", "False"]


def _tamari_imports(module: str) -> set:
    """The tamari modules a module of the package imports, by its AST."""
    path = Path(tamari.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("tamari.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "tamari":
                    continue
                parts = parts[1:]
            found |= ({parts[0]} if parts and parts[0]
                      else {alias.name for alias in node.names})
    return found


def test_series_imports_no_enumeration():
    # the checks against enumeration take their rows from the verify
    # suites, so the series module reads neither engine module
    assert _tamari_imports("series") == {"equations", "formulas", "polys"}


def test_equations_imports_only_polys():
    # the frozen data are source literals: no file read, no digest
    path = Path(tamari.__file__).with_name("equations.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    assert found == {"__future__", ".polys"}
