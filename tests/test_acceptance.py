"""End-to-end acceptance gate: eight criteria, one verdict line each.

Every criterion is a list of `tamari verify` runs, each a suite name and
its argv, run in-process through tamari.cli.main with --out, so options
are defaulted and refused exactly as on the command line; the checks
themselves live in the suites.  A criterion passes only if every run
writes a report, every run makes at least one check and every check is
ok.  Each prints exactly one `[gate] ...: PASS` / `FAIL (<first red
check>)` line (visible with `pytest -s` or by running this file as a
script).  Each report is memoised by its argv, so a suite that serves
several gates runs once per process.

    1. interval histogram: polynomial --order 10, invariants
    2. face counts: invariants
    3. internal faces: internal-cross --nmax 6, invariants
    4. functional equations: polynomial --order 10, catalytic --order 8
    5. printed operators: pde --order 11, telescoped --nmax 12
    6. bijections: dyck --nmax 6, canopy --nmax 7, fusy-humbert --order 6
    7. slope-m generalization: slope-m
    8. invariants: euler --nmax 7, chu-vandermonde, order-oracle,
       invariants

The extended marker re-runs criterion 1 at n = 9 (857956 intervals).
"""

import json
import sys
import tempfile
from contextlib import redirect_stderr
from functools import lru_cache
from io import StringIO
from pathlib import Path

import pytest

from tamari import cli

GATES = [
    ("1 interval histogram (enumeration = formula = series, n<=8)",
     [("polynomial", "--order", "10"), ("invariants",)]),
    ("2 diagonal face counts (transform n<=8, enumeration n<=6)",
     [("invariants",)]),
    ("3 internal faces (two routes n<=6, frozen rows n<=7, closed "
     "recursion n<=8)", [("internal-cross", "--nmax", "6"), ("invariants",)]),
    ("4 functional equations (quartic, catalytic, parametrization, "
     "z-shift)", [("polynomial", "--order", "10"),
                  ("catalytic", "--order", "8")]),
    ("5 operators (PDE mod t^10, telescoped n<=12, two-term n<=20)",
     [("pde", "--order", "11"), ("telescoped", "--nmax", "12")]),
    ("6 bijections (Dyck n<=6, canopy n<=7, canopy-pair system)",
     [("dyck", "--nmax", "6"), ("canopy", "--nmax", "7"),
      ("fusy-humbert", "--order", "6")]),
    ("7 slope-m lattices (counts on all grids <= 5000 elements, "
     "statistics, order in T_mn up to 2e4 pairs)", [("slope-m",)]),
    ("8 invariants (Euler, bracket-vector order, order axioms, des+asc, "
     "specializations, convolution)",
     [("euler", "--nmax", "7"), ("chu-vandermonde",), ("order-oracle",),
      ("invariants",)]),
]

# criterion 1 at n = 9: the (des, asc) tallies to n = 9 against the canopy
# series, whose substitution is the quartic root; the root against the
# closed form; the frozen count at n = 9
EXTENDED_NINE = [("fusy-humbert", "--order", "8"),
                 ("polynomial", "--order", "10"), ("slope-m",)]


@lru_cache(maxsize=None)
def report(argv: tuple) -> tuple:
    """(exit status, the report or None, stderr) of `tamari verify *argv`."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        with redirect_stderr(StringIO()) as err:
            status = cli.main(["verify", *argv, "--out", str(out)])
        found = json.loads(out.read_text()) if out.exists() else None
    return status, found, err.getvalue()


def red_checks(runs) -> list:
    """One line per red check, empty run or missing report of the runs."""
    red = []
    for argv in runs:
        command = "verify " + " ".join(argv)
        status, found, err = report(argv)
        if found is None:
            red.append(f"{command} exited {status}: {err.strip()}")
        elif not found["checks"]:
            red.append(f"{command} made no checks")
        else:
            red += [f"{command}: {check['name']}"
                    for check in found["checks"] if not check["ok"]]
    return red


def _verdict(number):
    """(the [gate] line of criterion `number` in GATES, whether it passed)."""
    name, runs = GATES[number - 1]
    red = red_checks(runs)
    verdict = "PASS" if not red else f"FAIL ({red[0]})"
    return f"[gate] {name}: {verdict}", not red


def _gate(number):
    line, passed = _verdict(number)
    print(line)
    assert passed, line


def test_gate_one_interval_histogram():
    _gate(1)


@pytest.mark.extended
def test_gate_one_extended_nine():
    assert red_checks(EXTENDED_NINE) == []


def test_gate_two_face_counts():
    _gate(2)


def test_gate_three_internal_faces():
    _gate(3)


def test_gate_four_functional_equations():
    _gate(4)


def test_gate_five_operators():
    _gate(5)


def test_gate_six_bijections():
    _gate(6)


def test_gate_seven_slope_m():
    _gate(7)


def test_gate_eight_invariants():
    _gate(8)


# ====
# the runner itself
# ====

@pytest.fixture
def fresh_reports():
    """Forget the memoised reports before and after a patched suite."""
    report.cache_clear()
    yield
    report.cache_clear()


def test_a_red_check_fails_its_gate_by_name(monkeypatch, fresh_reports):
    def planted():
        yield "planted-check", True, None
        yield "planted-red-check", False, None

    monkeypatch.setitem(cli.SUITES, "slope-m", (planted, {}))
    line, passed = _verdict(7)
    assert not passed
    assert line == (f"[gate] {GATES[6][0]}: FAIL (verify slope-m: "
                    "planted-red-check)")


def test_a_run_without_checks_fails_its_gate(monkeypatch, fresh_reports):
    monkeypatch.setitem(cli.SUITES, "slope-m", (lambda: iter(()), {}))
    line, passed = _verdict(7)
    assert not passed
    assert line.endswith("FAIL (verify slope-m made no checks)")


def test_a_run_without_report_fails_its_gate(monkeypatch, fresh_reports):
    monkeypatch.setenv("TAMARI_BUDGET", "10")
    line, passed = _verdict(7)
    assert not passed
    assert line.endswith("FAIL (verify slope-m exited 3: tamari: "
                         "m_tamari intervals(1, 9) needs 857956 > budget 10 "
                         "(raise the budget argument or TAMARI_BUDGET))")


def main() -> int:
    status = 0
    for number in range(1, len(GATES) + 1):
        line, passed = _verdict(number)
        print(line, flush=True)
        if not passed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
