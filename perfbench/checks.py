"""Output checks for the benchmark's ops.

Each op is a `tamari` argv.  `op_failure(argv, returncode, stdout, root)`
returns None when the op succeeded and its output is right, else a
one-line reason.  Tables are checked against the closed forms in
`tamari.formulas` and, for the rows the checked-in goldens cover, against
`golden/*.csv` cell by cell; verify reports must say `ok: true`.  The
checks run in the harness after the op has ended, outside its timed
window.
"""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from tamari.formulas import (
    a_formula,
    b_formula,
    interval_count_formula,
    m_tamari_intervals_formula,
    new_interval_formula,
    separated_formula,
)


class CheckFailed(Exception):
    """An op's output disagrees with what it must be."""


def _option(argv, flag: str) -> int:
    return int(argv[list(argv).index(flag) + 1])


def _parse_csv(text: str, index_columns: int) -> tuple:
    """(header, {row key: {column: int}}) keeping only nonempty cells."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        raise CheckFailed("empty output")
    header, body = lines[0], lines[1:]
    rows: dict = {}
    for line in body:
        if len(line) != len(header):
            raise CheckFailed(f"row {line[:index_columns]} has {len(line)} "
                              f"cells, header has {len(header)}")
        try:
            key = tuple(int(cell) for cell in line[:index_columns])
            cells = {column: int(cell)
                     for column, cell in zip(header[index_columns:],
                                             line[index_columns:])
                     if cell != ""}
        except ValueError as exc:
            raise CheckFailed(f"row {line[:index_columns]}: {exc}") from None
        if key in rows:
            raise CheckFailed(f"duplicate row {key}")
        rows[key] = cells
    return header, rows


def _expect_keys(rows: dict, keys: list) -> None:
    if list(rows) != keys:
        raise CheckFailed(f"rows {list(rows)[:4]}... do not match the "
                          f"expected {len(keys)} rows")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _match_golden(rows: dict, root: Path, name: str,
                  index_columns: int) -> None:
    """Every golden row that the output also has must match cell by cell."""
    golden_path = root / "golden" / f"table_{name.replace('-', '_')}.csv"
    _, golden = _parse_csv(golden_path.read_text(encoding="utf-8"),
                           index_columns)
    shared = [key for key in golden if key in rows]
    _expect(bool(shared), f"no row shared with {golden_path.name}")
    for key in shared:
        _expect(rows[key] == golden[key],
                f"row {key} differs from {golden_path.name}")


def _staircase_triangle(rows: dict, nmax: int, column: str) -> dict:
    """Rows (n, p) with cells column=q for p + q <= n - 1; by (n, p, q)."""
    _expect_keys(rows, [(n, p) for n in range(1, nmax + 1) for p in range(n)])
    cells = {}
    for (n, p), row in rows.items():
        _expect(set(row) == {f"{column}={q}" for q in range(n - p)},
                f"row {(n, p)} is not a staircase row")
        for q in range(n - p):
            cells[n, p, q] = row[f"{column}={q}"]
    return cells


def _antidiagonal(cells: dict, n: int, k: int) -> int:
    return sum(cells[n, p, k - p] for p in range(k + 1))


def _check_refined_pq(argv, text: str, root: Path) -> None:
    nmax = _option(argv, "--nmax")
    _, rows = _parse_csv(text, 2)
    cells = _staircase_triangle(rows, nmax, "q")
    for n in range(1, nmax + 1):
        for k in range(n):
            _expect(_antidiagonal(cells, n, k) == a_formula(n, k),
                    f"n={n} k={k}: anti-diagonal sum is not a_formula")
        for p in range(n):
            _expect(cells[n, p, n - 1 - p] == separated_formula(n, p),
                    f"n={n} p={p}: cell is not separated_formula")
    _match_golden(rows, root, "refined-pq", 2)


def _check_face_dims(argv, text: str, root: Path) -> None:
    nmax = _option(argv, "--nmax")
    _, rows = _parse_csv(text, 2)
    cells = _staircase_triangle(rows, nmax, "q")
    for n in range(1, nmax + 1):
        for k in range(n):
            _expect(_antidiagonal(cells, n, k) == b_formula(n, k),
                    f"n={n} k={k}: anti-diagonal sum is not b_formula")
    _match_golden(rows, root, "face-dims", 2)


def _check_m_stats(argv, text: str, root: Path) -> None:
    nmax, mmax = _option(argv, "--nmax"), _option(argv, "--mmax")
    _, rows = _parse_csv(text, 2)
    _expect_keys(rows, [(m, n) for m in range(1, mmax + 1)
                        for n in range(1, nmax + 1)])
    for (m, n), row in rows.items():
        total = row["total"]
        _expect(total == m_tamari_intervals_formula(m, n),
                f"m={m} n={n}: total is not m_tamari_intervals_formula")
        _expect(sum(c for column, c in row.items() if column != "total")
                == total,
                f"m={m} n={n}: cells do not sum to the total")
    _match_golden(rows, root, "m-stats", 2)


def _check_internal(argv, text: str, root: Path) -> None:
    nmax = _option(argv, "--nmax")
    _, rows = _parse_csv(text, 1)
    _expect_keys(rows, [(n,) for n in range(1, nmax + 1)])
    for (n,), row in rows.items():
        vector = [row[f"k={k}"] for k in range(n)]
        _expect(vector[0] == new_interval_formula(n),
                f"n={n}: vertex count is not new_interval_formula")
        _expect(sum((-1) ** k * c for k, c in enumerate(vector))
                == (-1) ** (n - 1), f"n={n}: alternating sum is wrong")
        _expect(row["total"] == sum(vector),
                f"n={n}: cells do not sum to the total")
    _match_golden(rows, root, "internal", 1)


def _check_a(argv, text: str, root: Path) -> None:
    nmax = _option(argv, "--nmax")
    _, rows = _parse_csv(text, 1)
    _expect_keys(rows, [(n,) for n in range(1, nmax + 1)])
    for (n,), row in rows.items():
        cells = [row[f"k={k}"] for k in range(n)]
        _expect(len(row) == n + 1, f"n={n}: not a staircase row")
        _expect(sum(cells) == row["total"],
                f"n={n}: cells do not sum to the total")
        _expect(row["total"] == interval_count_formula(n),
                f"n={n}: total is not interval_count_formula")
    _match_golden(rows, root, "a", 1)


def _check_b(argv, text: str, root: Path) -> None:
    nmax = _option(argv, "--nmax")
    _, rows = _parse_csv(text, 1)
    _expect_keys(rows, [(n,) for n in range(1, nmax + 1)])
    for (n,), row in rows.items():
        _expect(len(row) == n, f"n={n}: not a staircase row")
        _expect(sum((-1) ** k * row[f"k={k}"] for k in range(n)) == 1,
                f"n={n}: alternating sum is not 1")
    _match_golden(rows, root, "b", 1)


def _check_verify(argv, text: str, root: Path) -> None:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _expect(isinstance(report, dict), "report is not a JSON object")
    _expect(report.get("suite") == argv[1], "report names another suite")
    checks = report.get("checks") or []
    _expect(bool(checks), "report has no checks")
    bad = [entry.get("name") for entry in checks if entry.get("ok") is not True]
    _expect(not bad, f"failed checks: {bad[:3]}")
    _expect(report.get("ok") is True, "report is not ok")


TABLE_CHECKS = {
    "refined-pq": _check_refined_pq,
    "face-dims": _check_face_dims,
    "m-stats": _check_m_stats,
    "internal": _check_internal,
    "a": _check_a,
    "b": _check_b,
}


def check_output(argv, text: str, root: Path) -> None:
    """Raise CheckFailed unless `text` is the right stdout for `argv`."""
    if argv[0] == "verify":
        _check_verify(argv, text, root)
    elif argv[0] == "table" and argv[1] in TABLE_CHECKS:
        TABLE_CHECKS[argv[1]](argv, text, root)
    else:
        raise ValueError(f"no output check for {' '.join(argv)}")


def op_failure(argv, returncode: int, stdout: bytes, root: Path):
    """None if the op exited 0 with correct output, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        check_output(argv, stdout.decode("utf-8"), root)
    except (CheckFailed, UnicodeDecodeError, KeyError) as exc:
        return f"output check: {exc}"
    return None
