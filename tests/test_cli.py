"""Command-line surface: tables, verify suites, eval, exit statuses.

Core claims:
    - every `table` run at its default range reproduces the checked-in
      CSV under golden/ byte for byte
    - individual cells of the rendered tables carry the right counts
      (spot checks independent of the golden files)
    - the JSON format wraps the same grid with all counts rendered as
      decimal strings and staircase gaps as null
    - `eval` prints single exact values and enforces arity and sign
    - `verify` emits a JSON report {suite, params, checks, ok} and its
      exit status tracks the conjunction of the checks
    - exit statuses: 0 success, 2 usage (argparse or ValueError),
      3 budget exceeded, 4 verification or self-check failure
    - output is deterministic: repeated runs are byte-identical, and
      --out writes exactly what stdout would have carried
"""

import json
from pathlib import Path

import pytest

from tamari.cli import (
    EXIT_BUDGET,
    EXIT_USAGE,
    EXIT_VERIFY,
    SUITES,
    TABLES,
    main,
)
from tamari.equations import load_quartic
from tamari.series import TruncatedSeries, newton_solve, quartic_equation

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# table name on the command line -> checked-in rendering
GOLDEN_FILES = {
    "a": "table_a.csv",
    "b": "table_b.csv",
    "internal": "table_internal.csv",
    "m-intervals": "table_m_intervals.csv",
    "m-stats": "table_m_stats.csv",
    "refined-ell": "table_refined_ell.csv",
    "refined-pq": "table_refined_pq.csv",
    "face-dims": "table_face_dims.csv",
}


def run_cli(capsys, *argv):
    """Run main() in-process and return (status, stdout, stderr)."""
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def csv_grid(text):
    """Split a rendered CSV into (header, rows) of string cells."""
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def grid_row(rows, *prefix):
    """The unique row whose leading cells equal the given prefix."""
    wanted = [str(cell) for cell in prefix]
    matches = [row for row in rows if row[: len(wanted)] == wanted]
    assert len(matches) == 1
    return matches[0]


# ===================================================================
# golden renderings
# ===================================================================

class TestGoldenTables:
    def test_every_table_has_a_golden_file(self):
        assert set(GOLDEN_FILES) == set(TABLES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
    def test_default_run_matches_golden_bytes(self, capsys, name):
        status, out, _ = run_cli(capsys, "table", name)
        assert status == 0
        golden = (GOLDEN / GOLDEN_FILES[name]).read_text(encoding="utf-8")
        assert out == golden

    def test_out_writes_stdout_bytes_to_file(self, capsys, tmp_path):
        target = tmp_path / "a.csv"
        status, out, _ = run_cli(capsys, "table", "a", "--out", str(target))
        assert status == 0
        assert out == ""
        golden = (GOLDEN / "table_a.csv").read_text(encoding="utf-8")
        assert target.read_text(encoding="utf-8") == golden

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "table", "m-stats", "--nmax", "3")
        _, second, _ = run_cli(capsys, "table", "m-stats", "--nmax", "3")
        assert first == second

    def test_nmax_controls_row_count(self, capsys):
        _, out, _ = run_cli(capsys, "table", "a", "--nmax", "4")
        header, rows = csv_grid(out)
        assert header == ["n", "k=0", "k=1", "k=2", "k=3", "total"]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]


# ===================================================================
# cell spot checks (independent of the golden files)
# ===================================================================

class TestCellValues:
    def test_a_row_eight(self, capsys):
        _, out, _ = run_cli(capsys, "table", "a")
        _, rows = csv_grid(out)
        row = grid_row(rows, 8)
        assert row[1 + 5] == "42504"
        assert row[-1] == "118668"

    def test_a_staircase_blanks_past_the_diagonal(self, capsys):
        _, out, _ = run_cli(capsys, "table", "a")
        _, rows = csv_grid(out)
        row = grid_row(rows, 2)
        # a(2, k) lives for k <= n-1 = 1; columns run to k=8
        assert row[1:3] == ["1", "2"]
        assert row[3:-1] == [""] * 7
        assert row[-1] == "3"

    def test_b_has_no_total_column(self, capsys):
        _, out, _ = run_cli(capsys, "table", "b")
        header, rows = csv_grid(out)
        assert header == ["n"] + [f"k={k}" for k in range(9)]
        row = grid_row(rows, 7)
        assert row[1] == "16965"
        assert row[7] == "1938"
        assert row[8:] == ["", ""]

    def test_internal_row_seven(self, capsys):
        _, out, _ = run_cli(capsys, "table", "internal")
        _, rows = csv_grid(out)
        row = grid_row(rows, 7)
        assert row[1] == "1584"
        assert row[7] == "1938"
        assert row[-1] == str(1584 + 9648 + 24606 + 33680
                              + 26145 + 10944 + 1938)

    def test_m_intervals_grid_cells(self, capsys):
        _, out, _ = run_cli(capsys, "table", "m-intervals")
        header, rows = csv_grid(out)
        assert header == ["n"] + [f"m={m}" for m in range(1, 7)]
        assert grid_row(rows, 4)[3] == "3685"
        assert grid_row(rows, 8)[1] == "118668"
        assert grid_row(rows, 9)[1] == "857956"

    def test_m_stats_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "m-stats")
        _, rows = csv_grid(out)
        row = grid_row(rows, 2, 4)
        assert row[2:9] == ["1", "24", "150", "306", "189", "32", "1"]
        assert row[-1] == "703"

    def test_refined_ell_sum_row_leaves_corner_empty(self, capsys):
        _, out, _ = run_cli(capsys, "table", "refined-ell")
        _, rows = csv_grid(out)
        row = grid_row(rows, 5, "total")
        # column sums over i recover the interval histogram of n=5
        assert row[2:7] == ["1", "20", "105", "182", "91"]
        assert row[-1] == ""
        # and the i-indexed rows above it carry their own totals
        assert grid_row(rows, 5, 0)[2:7] == ["0", "1", "12", "33", "22"]
        assert grid_row(rows, 5, 0)[-1] == "68"

    def test_refined_pq_triangle(self, capsys):
        _, out, _ = run_cli(capsys, "table", "refined-pq")
        _, rows = csv_grid(out)
        assert grid_row(rows, 5, 1)[2:6] == ["10", "65", "81", "20"]
        assert grid_row(rows, 5, 4)[2:] == ["1", "", "", "", ""]

    def test_face_dims_triangle(self, capsys):
        _, out, _ = run_cli(capsys, "table", "face-dims")
        _, rows = csv_grid(out)
        assert grid_row(rows, 5, 0)[2:] == ["399", "570", "246", "34", "1"]
        assert grid_row(rows, 5, 2)[2:5] == ["246", "239", "49"]


# ===================================================================
# JSON format
# ===================================================================

class TestJsonFormat:
    def test_payload_shape_and_values(self, capsys):
        _, out, _ = run_cli(capsys, "table", "a", "--nmax", "4",
                            "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"table", "header", "rows"}
        assert payload["table"] == "a"
        assert payload["header"] == ["n", "k=0", "k=1", "k=2", "k=3",
                                     "total"]
        assert payload["rows"][3] == ["4", "1", "12", "33", "22", "68"]

    def test_counts_are_strings_and_gaps_are_null(self, capsys):
        _, out, _ = run_cli(capsys, "table", "b", "--nmax", "3",
                            "--format", "json")
        payload = json.loads(out)
        assert payload["rows"][0] == ["1", "1", None, None]
        for row in payload["rows"]:
            assert all(cell is None or isinstance(cell, str)
                       for cell in row)

    def test_json_matches_csv_cell_for_cell(self, capsys):
        _, csv_out, _ = run_cli(capsys, "table", "face-dims", "--nmax", "4")
        _, json_out, _ = run_cli(capsys, "table", "face-dims", "--nmax", "4",
                                 "--format", "json")
        header, rows = csv_grid(csv_out)
        payload = json.loads(json_out)
        assert payload["header"] == header
        rendered = [["" if cell is None else cell for cell in row]
                    for row in payload["rows"]]
        assert rendered == rows


# ===================================================================
# eval
# ===================================================================

class TestEval:
    @pytest.mark.parametrize("argv, expected", [
        (("a", "8", "5"), "42504"),
        (("b", "9", "8"), "49335"),
        (("intervals", "7"), "16965"),
        (("sync", "7"), "1938"),
        (("m-intervals", "3", "4"), "3685"),
    ])
    def test_prints_single_value(self, capsys, argv, expected):
        status, out, _ = run_cli(capsys, "eval", *argv)
        assert status == 0
        assert out == expected + "\n"

    def test_wrong_arity_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "a", "3"])
        assert excinfo.value.code == EXIT_USAGE
        assert "takes 2" in capsys.readouterr().err

    def test_negative_argument_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "intervals", "-1"])
        assert excinfo.value.code == EXIT_USAGE
        assert "nonnegative" in capsys.readouterr().err

    def test_unknown_expression_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "zeta", "3"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()


# ===================================================================
# verify
# ===================================================================

class TestVerify:
    def test_report_shape(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "order-oracle",
                                 "--nmax", "3")
        assert status == 0
        report = json.loads(out)
        assert set(report) == {"suite", "params", "checks", "ok"}
        assert report["suite"] == "order-oracle"
        assert report["params"] == {"nmax": 3}
        assert report["ok"] is True
        assert report["checks"]
        for entry in report["checks"]:
            assert entry["ok"] is True
            assert isinstance(entry["name"], str)

    @pytest.mark.parametrize("suite, extra", [
        ("canopy", ("--nmax", "4")),
        ("dyck", ("--nmax", "4")),
        ("chu-vandermonde", ()),
        ("catalytic", ("--order", "5")),
        ("euler", ("--nmax", "4")),
        ("decompositions", ("--nmax", "3",)),
    ])
    def test_passing_suites_exit_zero(self, capsys, suite, extra):
        status, out, _ = run_cli(capsys, "verify", suite, *extra)
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_every_suite_is_listed(self):
        assert set(SUITES) == {
            "order-oracle", "canopy", "dyck", "catalytic", "polynomial",
            "pde", "telescoped", "chu-vandermonde", "euler",
            "fusy-humbert", "decompositions", "internal-cross",
        }

    def test_failing_suite_exits_four(self, capsys):
        # at n=1 every min-max fiber is boolean, so the witness check
        # that a non-boolean fiber exists must come up red
        status, out, _ = run_cli(capsys, "verify", "decompositions",
                                 "--mode", "min-max", "--nmax", "1")
        assert status == EXIT_VERIFY
        report = json.loads(out)
        assert report["ok"] is False
        failed = [entry["name"] for entry in report["checks"]
                  if not entry["ok"]]
        assert failed == ["non-boolean-fiber-exists mode=min-max n<=1"]

    def test_seeded_suite_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "chu-vandermonde")
        _, second, _ = run_cli(capsys, "verify", "chu-vandermonde")
        assert first == second

    def test_polynomial_residual_check_reads_the_root(self, capsys,
                                                      monkeypatch):
        # a wrong root must turn the residual check red, not pass by fiat
        def perturbed(eq, order):
            return newton_solve(eq, order) + TruncatedSeries.from_polynomial(
                {(order, 1): 1}, order)

        monkeypatch.setattr("tamari.cli.newton_solve", perturbed)
        status, out, _ = run_cli(capsys, "verify", "polynomial",
                                 "--order", "4")
        assert status == EXIT_VERIFY
        checks = {entry["name"]: entry["ok"]
                  for entry in json.loads(out)["checks"]}
        assert checks["quartic-root-residual-mod-t^5"] is False

    def test_verify_respects_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run_cli(capsys, "verify", "canopy", "--nmax", "3",
                                 "--out", str(target))
        assert status == 0
        assert out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["ok"] is True


# ===================================================================
# exit statuses
# ===================================================================

class TestExitStatuses:
    def test_budget_exhaustion_exits_three(self, capsys):
        status, out, err = run_cli(capsys, "table", "internal",
                                   "--budget", "5")
        assert status == EXIT_BUDGET
        assert out == ""
        assert "TAMARI_BUDGET" in err

    def test_failed_self_check_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr("tamari.equations.QUARTIC_SHA256", "0" * 64)
        load_quartic.cache_clear()
        quartic_equation.cache_clear()
        status, out, err = run_cli(capsys, "verify", "polynomial",
                                   "--order", "3")
        assert status == EXIT_VERIFY
        assert out == ""
        assert "corrupted" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ("table", "a"),
        ("verify", "order-oracle"),
        ("verify", "canopy"),
        ("verify", "dyck"),
        ("verify", "telescoped"),
        ("verify", "euler"),
        ("verify", "decompositions"),
        ("verify", "internal-cross"),
    ], ids="-".join)
    def test_nmax_zero_is_a_usage_error(self, capsys, command, nmax):
        # a range below 1 is refused, not checked vacuously
        status, out, err = run_cli(capsys, *command, "--nmax", nmax)
        assert status == EXIT_USAGE
        assert out == ""
        assert "--nmax" in err

    def test_mmax_zero_is_a_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "table", "m-stats",
                                 "--nmax", "2", "--mmax", "0")
        assert status == EXIT_USAGE
        assert "--mmax" in err

    def test_unknown_table_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "nosuch"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()
