"""The output checks accept right outputs and count each kind of failure."""
import json
from pathlib import Path

import pytest

from checks import op_failure

ROOT = Path(__file__).resolve().parents[2]

# default invocations, whose stdout is byte-for-byte the golden file
GOLDEN_OPS = {
    "table_refined_pq.csv": ("table", "refined-pq", "--nmax", "5"),
    "table_face_dims.csv": ("table", "face-dims", "--nmax", "5"),
    "table_m_stats.csv": ("table", "m-stats", "--nmax", "4", "--mmax", "6"),
    "table_internal.csv": ("table", "internal", "--nmax", "7"),
    "table_a.csv": ("table", "a", "--nmax", "9"),
    "table_b.csv": ("table", "b", "--nmax", "9"),
}


def _golden(name: str) -> bytes:
    return (ROOT / "golden" / name).read_bytes()


def _report(ok: bool, suite: str = "pde") -> bytes:
    return json.dumps({"suite": suite, "params": {"order": 20},
                       "checks": [{"name": "annihilates", "ok": ok}],
                       "ok": ok}).encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_OPS))
def test_golden_output_passes(name):
    assert op_failure(GOLDEN_OPS[name], 0, _golden(name), ROOT) is None


@pytest.mark.parametrize("name", sorted(GOLDEN_OPS))
def test_one_cell_corruption_fails(name):
    lines = _golden(name).decode().splitlines()
    index_columns = 2 if GOLDEN_OPS[name][1] in (
        "refined-pq", "face-dims", "m-stats") else 1
    cells = lines[-1].split(",")
    cells[index_columns] = str(int(cells[index_columns]) + 1)
    lines[-1] = ",".join(cells)
    corrupted = ("\n".join(lines) + "\n").encode()
    assert op_failure(GOLDEN_OPS[name], 0, corrupted, ROOT)


def test_missing_row_fails():
    op = GOLDEN_OPS["table_a.csv"]
    truncated = b"".join(_golden("table_a.csv").splitlines(True)[:-1])
    assert "rows" in op_failure(op, 0, truncated, ROOT)


def test_verify_report_ok_passes():
    op = ("verify", "pde", "--order", "20")
    assert op_failure(op, 0, _report(True), ROOT) is None


def test_verify_report_not_ok_fails():
    op = ("verify", "pde", "--order", "20")
    assert op_failure(op, 0, _report(False), ROOT)


def test_verify_report_of_another_suite_fails():
    op = ("verify", "pde", "--order", "20")
    assert op_failure(op, 0, _report(True, suite="telescoped"), ROOT)


def test_nonzero_exit_fails():
    op = ("verify", "pde", "--order", "20")
    assert op_failure(op, 4, _report(True), ROOT) == "exit status 4"
    assert op_failure(GOLDEN_OPS["table_a.csv"], 3, b"", ROOT)
