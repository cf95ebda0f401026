"""Command-line surface: tables, verify suites, eval, exit statuses.

Core claims:
    - every `table` run at its default range reproduces the checked-in
      CSV under golden/ byte for byte
    - individual cells of the rendered tables carry the right counts
      (spot checks independent of the golden files); tables refined-pq
      and face-dims are read off the canopy series: no engine, no
      progress lines, and the face-dims rows are the engine's (des, asc)
      rows at (x + 1, y + 1) for n <= 8 (n = 9 extended)
    - the JSON format wraps the same grid with all counts rendered as
      decimal strings and staircase gaps as null; rendered a row at a
      time, it is byte for byte json.dumps(payload, indent=2) of the
      materialized table, for every table at its defaults and one size
      past them
    - tables stream: each declares its width from its options, and that
      width is its longest row's (every table at nmax <= 6, m-stats at
      mmax 1..4); `table a --nmax 300` peaks under 2 MB of traced memory
      with stdout sent to a null sink (about 5 MB when every row was held)
    - `eval` prints single exact values and enforces arity and sign
    - `verify` emits a JSON report {suite, params, checks, ok} and its
      exit status tracks the conjunction of the checks (one upper cover
      dropped from the engine turns verify dyck's cover check, and it
      alone, red; so does the closed formula off by one at one (m, n)
      for verify slope-m's count check, and a dropped rotation for
      verify invariants' comparison check); a check stands whatever its
      siblings found (verify canopy reports its histogram under any
      fault); every suite's default report matches the checked-in JSON
      under golden/ byte for byte; verify pde names the power of t its
      residual is zero modulo (t^10 at --order 11); verify catalytic and
      fusy-humbert announce each row they enumerate from n = 7
    - planted faults in the interval walk (its first strict interval at
      each n >= 3 dropped, its ends swapped, or replaced by a pair that
      is no interval) make verify internal-cross, euler and
      decompositions exit 4 with a pinned red set, or with the walk
      guard's self-check message, never with a traceback; internal-cross
      sees the first two only through its face-rows route
    - exit statuses: 0 success, 2 usage (argparse or ValueError, an
      option the table or suite does not read, a value below its
      minimum, a zero budget named by its source and value, an --out
      path that cannot be written, refused before the work), 3 budget
      exceeded (every multi-n table and suite on its largest row, before
      the first row; slope-m and invariants, which read no option, on
      their largest interval count under TAMARI_BUDGET; order-oracle on
      its tree pairs; table internal on
      the coefficient products of its recursion, tables refined-pq and
      face-dims on those of their canopy solve, which the default budget
      admits to n = 20), 4 verification or self-check failure
      (an inexact division included, a ratio row from a wrong start
      among them, a wrong coefficient in the canopy solve, a row
      longer than its table's declared width, a nonzero Newton
      residual, and one raised coefficient of the quartic, which turns
      exactly the polynomial checks that read it red); exits 3
      and 4,
      and a build that fails part-way, leave an existing --out file as
      it was;
      every table and suite exits 0 with each declared option at its
      minimum
    - output is deterministic: repeated runs are byte-identical, and
      --out writes exactly what stdout would have carried
"""

import contextlib
import json
import os
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from conftest import right_comb
from tamari import cli, formulas, polys, series, trees
from tamari.cli import (
    EXIT_BUDGET,
    EXIT_USAGE,
    EXIT_VERIFY,
    SUITES,
    TABLES,
    main,
)
from tamari.diagonal import decomposition_report
from tamari.formulas import interval_count_formula
from tamari.paths import _ballot_lattice, _walk, cover_table, tree_to_dyck
from tamari.series import TruncatedSeries, newton_solve
from tamari.trees import canopy, serialize

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


class TestGoldenReports:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_default_report_matches_golden_bytes(self, capsys, suite):
        status, out, _ = run_cli(capsys, "verify", suite)
        assert status == 0
        golden = GOLDEN / f"verify_{suite.replace('-', '_')}.json"
        assert out == golden.read_text(encoding="utf-8")


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

    def test_refined_pq_is_read_off_the_series(self, capsys, no_engine):
        # no engine runs and no row is announced, from n = 7 either
        status, out, err = run_cli(capsys, "table", "refined-pq")
        assert (status, err) == (0, "")
        assert out == (GOLDEN / GOLDEN_FILES["refined-pq"]).read_text(
            encoding="utf-8")
        status, out, err = run_cli(capsys, "table", "refined-pq",
                                   "--nmax", "8")
        assert (status, err) == (0, "")
        assert grid_row(csv_grid(out)[1], 8, 7)[2:3] == ["1"]

    @pytest.mark.parametrize(
        "n", [*range(1, 9), pytest.param(9, marks=pytest.mark.extended)])
    def test_face_dims_is_the_engine_table_shifted(self, capsys, monkeypatch,
                                                   no_engine, n):
        # read off the series with no engine and no progress line, then
        # checked against the engine's (des, asc) table at (x + 1, y + 1):
        # a face (f, g) is an interval with a subset of its des(s) + asc(t)
        # edges contracted
        status, out, err = run_cli(capsys, "table", "face-dims",
                                   "--nmax", str(n))
        assert (status, err) == (0, "")
        monkeypatch.undo()
        expected: dict = {}
        table = cover_table(1, n, interval_count_formula(n))
        for (des_s, asc_t), count in table.cells.items():
            for p in range(des_s + 1):
                for q in range(asc_t + 1):
                    expected[p, q] = (expected.get((p, q), 0) + count
                                      * comb(des_s, p) * comb(asc_t, q))
        rows = csv_grid(out)[1]
        for p in range(n):
            assert grid_row(rows, n, p)[2:2 + n - p] == [
                str(expected.get((p, q), 0)) for q in range(n - p)]

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

    @pytest.mark.parametrize("size", ["default", "larger"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_streamed_json_is_the_payload_dumped_whole(self, capsys, name,
                                                       size):
        # the rows are rendered one at a time; the oracle materializes
        # the table and dumps it in one call
        builder, reads = TABLES[name]
        options = {option: default for option, (default, _) in reads.items()}
        if size == "larger":
            options.update(LARGER_TABLES[name])
        argv = [f"--{option}={value}" for option, value in options.items()
                if value is not None]
        status, out, _ = run_cli(capsys, "table", name, *argv,
                                 "--format", "json")
        header, rows = builder(**options)
        payload = {"table": name, "header": header,
                   "rows": [[None if cell is None else str(cell)
                             for cell in row] for row in rows]}
        assert status == 0
        assert out == json.dumps(payload, indent=2) + "\n"


# one size past each table's default, each built in well under a second
LARGER_TABLES = {
    "a": {"nmax": 30},
    "b": {"nmax": 30},
    "internal": {"nmax": 12},
    "m-intervals": {"nmax": 30},
    "m-stats": {"nmax": 5, "mmax": 3},
    "refined-ell": {"nmax": 7},
    "refined-pq": {"nmax": 9},
    "face-dims": {"nmax": 9},
}


# ===================================================================
# streamed tables
# ===================================================================

def _width_argvs():
    """Every table that pads its rows, at nmax 1..6; m-stats at mmax 1..4;
    past the default budget where a table reads one."""
    for name, (_, reads) in sorted(TABLES.items()):
        if name == "m-intervals":  # one cell per slope, no padding
            continue
        budget = ("--budget=100000000",) if "budget" in reads else ()
        for nmax in range(1, 7):
            for mmax in range(1, 5) if "mmax" in reads else [None]:
                yield ("table", name, f"--nmax={nmax}") + (
                    (f"--mmax={mmax}",) if mmax else ()) + budget


class TestStreaming:
    @pytest.mark.parametrize("argv", list(_width_argvs()), ids=lambda argv: (
        "-".join(arg for arg in argv[1:] if not arg.startswith("--budget"))))
    def test_declared_width_is_the_longest_row(self, capsys, monkeypatch,
                                               argv):
        # the materializing oracle: hold every row, measure the longest,
        # then hand the rows on to the streaming grid
        grid = cli._grid
        seen = []

        def materialized(names, column, width, rows, total=True):
            rows = list(rows)
            seen.append((width, max(len(cells) for _, cells, _ in rows)))
            return grid(names, column, width, rows, total)

        monkeypatch.setattr("tamari.cli._grid", materialized)
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0 and out
        assert len(seen) == 1
        declared, longest = seen[0]
        assert declared == longest

    def test_table_holds_one_row_not_the_table(self):
        # 300 rows of a(n, k) are about 5 MB of ints as a list (the peak
        # when every row was held to find the width); streamed through
        # the spill file, one row and the file's buffer are held
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            cli.main(["table", "a", "--nmax", "1"])  # imports done before
            tracemalloc.start()
            try:
                status = cli.main(["table", "a", "--nmax", "300"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert status == 0
        assert peak < 2 * 2**20


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

    def test_values_past_the_int_str_limit_print_exactly(self, capsys):
        # CPython refuses to print an int of more than 4,300 digits by
        # default; the exact value of a valid request prints regardless
        status, out, err = run_cli(capsys, "eval", "a", "6000", "3000")
        assert (status, err) == (0, "")
        assert len(out) == 5318 + 1
        assert out.startswith("205358697991")
        assert int(out) == formulas.a_formula(6000, 3000)

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
            "fusy-humbert", "decompositions", "internal-cross", "slope-m",
            "invariants",
        }

    def test_slope_m_catches_a_wrong_formula(self, capsys, monkeypatch):
        # the closed formula one too high at (m, n) = (3, 2) alone: only
        # the count check turns red, and it names that grid
        formula = formulas.m_tamari_intervals_formula
        monkeypatch.setattr("tamari.cli.m_tamari_intervals_formula",
                            lambda m, n: formula(m, n) + ((m, n) == (3, 2)))
        status, out, _ = run_cli(capsys, "verify", "slope-m")
        assert status == EXIT_VERIFY
        red = [entry for entry in json.loads(out)["checks"]
               if not entry["ok"]]
        assert red == [{"name": "counts-match-closed-form elements<=5000",
                        "ok": False, "detail": [3, 2]}]

    def test_invariants_catch_a_dropped_rotation(self, capsys, monkeypatch):
        # each tree loses its first lower cover: the rotation search then
        # misses trees below it, which only the comparison check sees
        rotations_down = trees.rotations_down
        monkeypatch.setattr("tamari.lattice.rotations_down", lambda t: (
            frozenset(sorted(rotations_down(t), key=serialize)[1:])))
        status, out, _ = run_cli(capsys, "verify", "invariants")
        assert status == EXIT_VERIFY
        red = [entry for entry in json.loads(out)["checks"]
               if not entry["ok"]]
        assert red == [{"name": "comparison-matches-reachability n<=6",
                        "ok": False, "detail": 2}]

    def test_failing_suite_exits_four(self, capsys, monkeypatch):
        # with every min-max fiber reported boolean, the witness check
        # that a non-boolean fiber exists must come up red
        def all_boolean(n, mode, budget):
            report = decomposition_report(n, mode, budget)
            return dict(report, all_boolean=True, non_boolean_fibers=[])

        monkeypatch.setattr("tamari.cli.decomposition_report", all_boolean)
        status, out, _ = run_cli(capsys, "verify", "decompositions",
                                 "--mode", "min-max", "--nmax", "2")
        assert status == EXIT_VERIFY
        report = json.loads(out)
        assert report["ok"] is False
        failed = [entry["name"] for entry in report["checks"]
                  if not entry["ok"]]
        assert failed == ["non-boolean-fiber-exists mode=min-max n<=2"]

    @pytest.mark.parametrize("argv, last, golden", [
        (("catalytic",), 8, "verify_catalytic.json"),
        (("fusy-humbert", "--order", "7"), 8, None),
    ], ids=["catalytic", "fusy-humbert"])
    def test_series_suites_announce_their_enumerated_rows(
            self, capsys, argv, last, golden):
        # the suites enumerate the rows the series checks read, through
        # the row loop of every enumerating suite: one line per row from
        # n = 7 (catalytic's default order is 8; fusy-humbert at order 7
        # reads rows to n = 8), and stdout is the report as before
        status, out, err = run_cli(capsys, "verify", *argv)
        assert status == 0
        assert err.splitlines() == [f"tamari: verify {argv[0]} n={n}"
                                    for n in range(7, last + 1)]
        assert json.loads(out)["ok"] is True
        if golden:
            assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_seeded_suite_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "chu-vandermonde")
        _, second, _ = run_cli(capsys, "verify", "chu-vandermonde")
        assert first == second

    def test_pde_check_names_the_power_it_checks(self, capsys):
        # verify_pde(11) keeps the residual to t^9, so it is zero mod t^10,
        # the power acceptance gate 5 names
        status, out, _ = run_cli(capsys, "verify", "pde", "--order", "11")
        assert status == 0
        assert [entry["name"] for entry in json.loads(out)["checks"]] == [
            "differential-operators-annihilate-mod-t^10"]

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

    def test_canopy_suite_catches_a_wrong_canopy(self, capsys, monkeypatch):
        # flip one letter of the top tree's canopy: the per-interval mask
        # checks must turn red on a pair through that tree
        top = right_comb(3)

        def flipped(t):
            word = canopy(t)
            if t != top:
                return word
            return ("-" if word[0] == "+" else "+") + word[1:]

        monkeypatch.setattr("tamari.cli.canopy", flipped)
        status, out, _ = run_cli(capsys, "verify", "canopy", "--nmax", "3")
        assert status == EXIT_VERIFY
        report = json.loads(out)
        assert report["ok"] is False
        checks = {entry["name"]: entry for entry in report["checks"]}
        assert checks["entry-counts-are-asc-des n=3"]["ok"] is False
        # each pair check scans every interval, so both turn red, each
        # on a pair through that tree
        for name in ("canopies-monotone n=3",
                     "shared-entries-count-asc-des n=3"):
            assert checks[name]["ok"] is False
            assert serialize(top) in checks[name]["detail"]["pair"]
        # the histogram stands whatever its siblings found: red, since
        # the flipped letter moves the agreements of that tree's pairs
        assert checks["agreement-histogram n=3"]["ok"] is False
        assert all(entry["ok"] for name, entry in checks.items()
                   if not name.endswith("n=3"))

    def test_canopy_histogram_stands_whatever_its_siblings_found(
            self, capsys, monkeypatch):
        # flip bit 0 of every canopy mask: the pair checks turn red, and
        # every n still reports its four checks; the histogram stays green,
        # since a letter flipped in both masks leaves cs ^ ct unchanged
        plus_mask = cli._canopy_plus_mask
        monkeypatch.setattr("tamari.cli._canopy_plus_mask", lambda t: (
            plus_mask(t)[0] ^ 1, t))
        status, out, _ = run_cli(capsys, "verify", "canopy", "--nmax", "3")
        assert status == EXIT_VERIFY
        checks = {entry["name"]: entry["ok"]
                  for entry in json.loads(out)["checks"]}
        assert len(checks) == 12
        for n in (1, 2, 3):
            assert checks[f"entry-counts-are-asc-des n={n}"] is True
            assert checks[f"canopies-monotone n={n}"] is (n == 1)
            assert checks[f"shared-entries-count-asc-des n={n}"] is False
            assert checks[f"agreement-histogram n={n}"] is True

    def test_dyck_checks_each_scan_every_tree(self, capsys, monkeypatch):
        # break the valley count and every tree's upper covers: every
        # tree fails the statistics check, and the cover check must
        # still scan the trees and turn red on its own
        monkeypatch.setattr("tamari.cli.valleys", lambda word: -1)
        monkeypatch.setattr("tamari.cli.rotations_up",
                            lambda t: frozenset())
        status, out, _ = run_cli(capsys, "verify", "dyck", "--nmax", "3")
        assert status == EXIT_VERIFY
        checks = {entry["name"]: entry["ok"]
                  for entry in json.loads(out)["checks"]}
        for n in (2, 3):
            assert checks[f"statistics-transport n={n}"] is False
            assert checks[f"cover-transport n={n}"] is False
            assert checks[f"round-trip n={n}"] is True

    def test_dyck_cover_check_reads_the_engine_covers(self, capsys,
                                                      monkeypatch):
        # the engine's generating pass drops one upper cover of its bottom
        # word at n = 4: the cover check at n = 4, which reads the engine's
        # covers as trees, is the only check to turn red
        def dropped(m, n):
            words, upper, covers = _ballot_lattice(m, n)
            if n == 4:
                assert upper[0]
                upper[0] -= 1
                del covers[0]
            return words, upper, covers

        monkeypatch.setattr("tamari.cli._ballot_lattice", dropped)
        status, out, _ = run_cli(capsys, "verify", "dyck", "--nmax", "4")
        assert status == EXIT_VERIFY
        checks = {entry["name"]: entry["ok"]
                  for entry in json.loads(out)["checks"]}
        assert [name for name, ok in checks.items() if not ok] == [
            "cover-transport n=4"]
        for n in range(1, 5):
            assert checks[f"statistics-transport n={n}"] is True
            assert checks[f"round-trip n={n}"] is True

    @pytest.mark.parametrize("argv", [
        ("canopy", "--nmax", "3", "--budget", "100000000"),
        ("catalytic", "--order", "3", "--budget", "100000000"),
        ("fusy-humbert", "--order", "2", "--budget", "100000000"),
        ("polynomial", "--order", "3"),
        ("pde", "--order", "4"),
        ("telescoped", "--nmax", "3"),
        ("decompositions", "--nmax", "2", "--mode", "max-min",
         "--budget", "1000"),
    ], ids="-".join)
    def test_options_a_suite_reads_are_accepted(self, capsys, argv):
        status, out, _ = run_cli(capsys, "verify", *argv)
        assert status == 0
        report = json.loads(out)
        assert report["ok"] is True
        given = dict(zip(argv[1::2], argv[2::2]))
        assert {f"--{key}": str(value)
                for key, value in report["params"].items()} == given

    def test_verify_respects_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = run_cli(capsys, "verify", "canopy", "--nmax", "3",
                                 "--out", str(target))
        assert status == 0
        assert out == ""
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["ok"] is True


# ===================================================================
# planted faults in the interval walk
# ===================================================================

def _no_interval(n: int) -> tuple:
    """Ballot words of two trees on n >= 3 nodes that are no interval: the
    span (1, 2) is a left child in the first and a right child in the
    second, which the walk's guard refuses."""
    rest = right_comb(n - 3)
    return tuple(tree_to_dyck(t).translate(str.maketrans("UD", "NE"))
                 for t in ((None, ((None, None), rest)),
                           ((None, (None, None)), rest)))


def _planted_walk(fault: str):
    """paths._walk with one fault at its first strict interval for each
    n >= 3: dropped, its ends swapped, or replaced by _no_interval(n)."""
    def walk(m, n, budget, element):
        values = {}

        def keep(word):
            values[word] = element(word)
            return word

        pending = n >= 3
        for s, t, down, up in _walk(m, n, budget, keep):
            if pending and s != t:
                pending = False
                if fault == "drop":
                    continue
                s, t = (t, s) if fault == "swap" else _no_interval(n)
            yield values[s], values[t], down, up
    return walk


def _at(names, ns) -> set:
    """The check names of each name at each n."""
    return {f"{name} n={n}" for name in names for n in ns}


# every mode's f-vector check and max-max's boolean check at n = 3, 4; a
# dropped interval also loses a max-min fiber
DECOMPOSITION_REDS = _at([f"fvector-agrees mode={mode}" for mode in (
    "min-min", "max-min", "min-max", "max-max")], (3, 4)) | _at(
    ["all-fibers-boolean mode=max-max"], (3, 4))
PLANTED_FAULTS = [
    ("drop", "internal-cross",
     _at(["classification-vs-face-rows"], (3, 4, 5))),
    ("drop", "euler", _at(["internal-alternating-sum"], range(3, 8))),
    ("drop", "decompositions", DECOMPOSITION_REDS
     | _at(["one-fiber-per-interval mode=max-min"], (3, 4))),
    ("swap", "internal-cross",
     _at(["classification-vs-face-rows"], (3, 4, 5))),
    ("swap", "euler", _at(["internal-alternating-sum"], range(3, 8))),
    ("swap", "decompositions", DECOMPOSITION_REDS),
    # the classification refuses the pair: a failed self-check, no report
    ("guard", "internal-cross", None),
    ("guard", "euler", None),
    # the faces have no guard: the pair's fiber is counted
    ("guard", "decompositions", DECOMPOSITION_REDS
     | {"all-fibers-boolean mode=min-min n=4"}),
]


class TestPlantedWalkFaults:
    @pytest.mark.parametrize("fault, suite, red", PLANTED_FAULTS,
                             ids=[f"{fault}-{suite}"
                                  for fault, suite, _ in PLANTED_FAULTS])
    def test_walk_fault_turns_checks_red(self, capsys, monkeypatch, fault,
                                         suite, red):
        # the classification-vs-contractions check reads the walk on both
        # sides, so only a route that reads no walk sees such a fault
        monkeypatch.setattr("tamari.lattice._walk", _planted_walk(fault))
        status, out, err = run_cli(capsys, "verify", suite)
        assert status == EXIT_VERIFY
        assert "Traceback" not in err
        if red is None:
            assert out == ""
            assert err == ("tamari: self-check failed: not an interval: an "
                           "ascent span of the lower tree reappears as a "
                           "descent span of the upper tree\n")
        else:
            assert {entry["name"] for entry in json.loads(out)["checks"]
                    if not entry["ok"]} == red


# ===================================================================
# exit statuses
# ===================================================================

# a multi-n command and the largest row it is refused on; under
# --budget 10 row 1 (one tree, interval or face) fits and row 4 does not
REFUSED_LARGEST_ROWS = [
    # 58,786^2 ordered comparisons at n = 11 against the default budget
    ("verify order-oracle --nmax 11", "order-oracle comparisons n=11"),
    ("table internal --nmax 4 --budget 10", "internal_rows(4) products"),
    ("table m-stats --nmax 4 --mmax 2 --budget 10",
     "m_tamari intervals(2, 4)"),
    ("table refined-ell --nmax 4 --budget 10", "m_tamari intervals(1, 4)"),
    ("table refined-pq --nmax 4 --budget 10", "canopy_cells(3) products"),
    ("table face-dims --nmax 4 --budget 10", "canopy_cells(3) products"),
    ("verify canopy --nmax 4 --budget 10", "m_tamari intervals(1, 4)"),
    ("verify dyck --nmax 4 --budget 10", "all_trees(4)"),
    ("verify euler --nmax 4 --budget 10", "m_tamari intervals(1, 4)"),
    ("verify decompositions --nmax 4 --budget 10", "diagonal_faces(4)"),
    ("verify internal-cross --nmax 4 --budget 10", "diagonal_faces(4)"),
    ("verify catalytic --order 4 --budget 10", "m_tamari intervals(1, 4)"),
    ("verify fusy-humbert --order 3 --budget 10",
     "m_tamari intervals(1, 4)"),
]


class TestExitStatuses:
    def test_budget_exhaustion_exits_three(self, capsys):
        status, out, err = run_cli(capsys, "table", "internal",
                                   "--budget", "5")
        assert status == EXIT_BUDGET
        assert out == ""
        assert "TAMARI_BUDGET" in err

    @pytest.mark.parametrize("command, largest", REFUSED_LARGEST_ROWS,
                             ids=["-".join(command.split()[:2])
                                  for command, _ in REFUSED_LARGEST_ROWS])
    def test_largest_row_is_refused_first(
            self, capsys, monkeypatch, no_engine, command, largest):
        def refuse(*args):
            raise AssertionError("a row started")

        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        monkeypatch.setattr("tamari.cli.all_trees", refuse)
        monkeypatch.setattr("tamari.cli.internal_rows", refuse)
        monkeypatch.setattr("tamari.cli.canopy_cells", refuse)
        status, out, err = run_cli(capsys, *command.split())
        assert status == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"tamari: {largest} needs ")

    @pytest.mark.parametrize("suite, largest, size", [
        ("slope-m", "m_tamari intervals(1, 9)", 857956),
        ("invariants", "m_tamari intervals(1, 8)", 118668),
    ], ids=["slope-m", "invariants"])
    def test_optionless_suite_refuses_its_largest_enumeration_first(
            self, capsys, monkeypatch, no_engine, suite, largest, size):
        # no option to lower: TAMARI_BUDGET one short of the largest
        # enumeration refuses it before anything is enumerated
        def refuse(*args):
            raise AssertionError("a tree was generated")

        monkeypatch.setenv("TAMARI_BUDGET", str(size - 1))
        monkeypatch.setattr("tamari.cli.all_trees", refuse)
        status, out, err = run_cli(capsys, "verify", suite)
        assert status == EXIT_BUDGET
        assert out == ""
        assert err.startswith(f"tamari: {largest} needs {size} > budget ")

    @pytest.mark.parametrize("budget, status", [("195", EXIT_BUDGET),
                                                ("196", 0)])
    def test_order_oracle_budget_counts_tree_pairs(self, capsys, budget,
                                                   status):
        # C_4 = 14 trees make 196 ordered pairs
        assert run_cli(capsys, "verify", "order-oracle", "--nmax", "4",
                       "--budget", budget)[0] == status

    @pytest.mark.parametrize("argv, status", [
        (("--nmax", "4", "--budget", "501"), EXIT_BUDGET),
        (("--nmax", "4", "--budget", "502"), 0),
        (("--nmax", "11", "--budget", "100000000"), 0),
        (("--nmax", "100000"), EXIT_BUDGET),
    ], ids=["budget-one-short-refused", "budget-exact-admitted", "nmax-11",
          "huge-nmax-refused"])
    def test_refined_pq_budget_counts_solve_products(self, capsys,
                                                     monkeypatch, argv,
                                                     status):
        # the canopy solve to degree 3 makes 502 coefficient products; a
        # refused solve never starts
        def refuse(*args):
            raise AssertionError("the solve started")

        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        if status == EXIT_BUDGET:
            monkeypatch.setattr("tamari.cli.canopy_cells", refuse)
        assert run_cli(capsys, "table", "refined-pq", *argv)[0] == status

    def test_bad_budget_variable_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_BUDGET", "abc")
        status, out, err = run_cli(capsys, "table", "internal", "--nmax", "2")
        assert status == EXIT_USAGE
        assert out == ""
        assert err == "tamari: TAMARI_BUDGET='abc' is not an integer\n"

    def test_zero_budget_variable_is_a_usage_error(self, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("TAMARI_BUDGET", "0")
        status, out, err = run_cli(capsys, "table", "internal", "--nmax", "2")
        assert status == EXIT_USAGE
        assert out == ""
        assert err == "tamari: TAMARI_BUDGET='0' is not positive\n"

    def test_zero_budget_option_is_a_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "table", "internal", "--nmax", "2",
                                   "--budget", "0")
        assert status == EXIT_USAGE
        assert out == ""
        assert err == "tamari: --budget must be at least 1, not 0\n"

    def test_face_dims_to_twenty_two_fit_the_default_budget(self, capsys,
                                                             monkeypatch):
        # canopy_cells(21) makes 1,787,002 coefficient products and
        # canopy_cells(22) 2,284,150: n = 23 is refused before the solve
        def refuse(*args):
            raise AssertionError("the solve started")

        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        status, out, _ = run_cli(capsys, "table", "face-dims", "--nmax", "22")
        assert status == 0
        _, rows = csv_grid(out)
        for k in range(22):
            assert sum(int(grid_row(rows, 22, p)[2 + k - p])
                       for p in range(k + 1)) == formulas.b_formula(22, k)
        monkeypatch.setattr("tamari.cli.canopy_cells", refuse)
        status, out, err = run_cli(capsys, "table", "face-dims",
                                   "--nmax", "23")
        assert (status, out) == (EXIT_BUDGET, "")
        assert err.startswith("tamari: canopy_cells(22) products needs "
                              "2284150 > budget ")

    def test_internal_rows_to_forty_fit_the_default_budget(self, capsys,
                                                           monkeypatch):
        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        status, out, _ = run_cli(capsys, "table", "internal", "--nmax", "40")
        assert status == 0
        _, rows = csv_grid(out)
        assert [row[0] for row in rows] == [str(n) for n in range(1, 41)]

    def test_huge_internal_nmax_is_refused_first(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the recursion started")

        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        monkeypatch.setattr("tamari.cli.internal_rows", refuse)
        status, out, err = run_cli(capsys, "table", "internal",
                                   "--nmax", "100000")
        assert status == EXIT_BUDGET
        assert out == ""
        assert err.startswith("tamari: internal_rows(100000) products needs ")

    def test_row_longer_than_its_width_exits_four(self, capsys,
                                                   monkeypatch):
        # row 2 of table a grows two cells past the declared width 3
        term_row = formulas.term_row
        monkeypatch.setattr("tamari.cli.term_row", lambda term, n: (
            term_row(term, n) + [0, 0] * (n == 2)))
        status, out, err = run_cli(capsys, "table", "a", "--nmax", "3")
        assert (status, out) == (EXIT_VERIFY, "")
        assert err == ("tamari: self-check failed: a row of 4 cells in a "
                       "table of width 3\n")

    def test_inexact_division_exits_four(self, capsys, monkeypatch):
        # halving the constant of the a list leaves a(n, 0) = 1/2
        monkeypatch.setattr("tamari.cli.A", (1, formulas.A[1]))
        status, out, err = run_cli(capsys, "table", "a", "--nmax", "3")
        assert status == EXIT_VERIFY
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("tamari: self-check failed: non-exact division")

    @pytest.mark.parametrize("command", [
        ("table", "refined-pq"),
        ("verify", "fusy-humbert", "--order", "3"),
    ], ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("bumped", ["first", "last"])
    def test_wrong_canopy_part_exits_four(self, capsys, monkeypatch,
                                          tmp_path, command, bumped):
        # one coefficient of one part of the canopy solve is off by one:
        # a part of 1+U in the first product, of F in the last
        products = []

        def counted(target, p, q, sign=1):
            products.append(None)
            polys._add_product(target, p, q, sign)

        monkeypatch.setattr("tamari.series._add_product", counted)
        series.canopy_cells(4 if command[0] == "table" else 3)
        wrong = 0 if bumped == "first" else len(products) - 1
        products.clear()

        def bump(target, p, q, sign=1):
            counted(target, p, q, sign)
            if len(products) - 1 == wrong:
                target[0] += 1

        monkeypatch.setattr("tamari.series._add_product", bump)
        target = tmp_path / "out.txt"
        target.write_bytes(b"earlier contents\n")
        for out_args in ((), ("--out", str(target))):
            status, out, err = run_cli(capsys, *command, *out_args)
            assert (status, out) == (EXIT_VERIFY, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("tamari: self-check failed: the canopy")
            products.clear()
        assert target.read_bytes() == b"earlier contents\n"

    def test_failed_self_check_exits_four(self, capsys, monkeypatch):
        # one coefficient of the quartic raised by one turns exactly the
        # checks that read it red: a term of high t-degree leaves the low
        # rows of the root as they were
        closed_form = "coefficients-match-closed-form n<=3"
        curve = "parametrization-annihilates-mod-s^6"
        for term, red in (((1, 0, 0), [closed_form, curve]),
                          ((0, 0, 1), [closed_form, curve]),
                          ((2, 2, 2), [curve]),
                          ((3, 6, 4), [curve])):
            with monkeypatch.context() as patch:
                patch.setattr("tamari.series.QUARTIC", tuple(
                    (i, j, k, c + ((i, j, k) == term))
                    for i, j, k, c in series.QUARTIC))
                status, out, err = run_cli(capsys, "verify", "polynomial",
                                           "--order", "3")
            assert (status, err) == (EXIT_VERIFY, ""), term
            assert [entry["name"] for entry in json.loads(out)["checks"]
                    if not entry["ok"]] == red, term

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

    @pytest.mark.parametrize("suite, order", [
        ("polynomial", "0"),
        ("catalytic", "0"),
        ("pde", "2"),
        ("fusy-humbert", "-1"),
    ])
    def test_order_below_minimum_is_a_usage_error(self, capsys, suite,
                                                  order):
        # an order that would check nothing is refused, not passed
        status, out, err = run_cli(capsys, "verify", suite, "--order", order)
        assert status == EXIT_USAGE
        assert out == ""
        assert "--order" in err

    @pytest.mark.parametrize("argv", [
        ("order-oracle", "--order", "0"),
        ("chu-vandermonde", "--mode", "max-min"),
        ("telescoped", "--budget", "5"),
        ("polynomial", "--nmax", "3"),
        ("euler", "--mode", "min-min"),
        ("canopy", "--mmax", "3"),
        ("canopy", "--format", "json"),
    ], ids="-".join)
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        status, out, err = run_cli(capsys, "verify", *argv)
        assert status == EXIT_USAGE
        assert out == ""
        assert argv[1] in err and argv[0] in err

    @pytest.mark.parametrize("argv", [
        ("a", "--mmax", "3"),
        ("internal", "--mmax", "2"),
        ("b", "--budget", "5"),
        ("a", "--order", "3"),
        ("a", "--mode", "min-max"),
    ], ids="-".join)
    def test_option_a_table_does_not_read_is_a_usage_error(self, capsys,
                                                           argv):
        status, out, err = run_cli(capsys, "table", *argv)
        assert status == EXIT_USAGE
        assert out == ""
        assert argv[1] in err and f"table {argv[0]}" in err

    def test_options_a_table_reads_are_accepted(self, capsys):
        status, out, _ = run_cli(capsys, "table", "m-stats", "--nmax", "2",
                                 "--mmax", "2", "--budget", "100000000")
        assert status == 0
        _, rows = csv_grid(out)
        assert [row[:2] for row in rows] == [["1", "1"], ["1", "2"],
                                             ["2", "1"], ["2", "2"]]

    @pytest.mark.parametrize("command", [
        ("table", "a"),
        ("verify", "canopy", "--nmax", "3"),
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path,
                                             command):
        target = tmp_path / "no-such-directory" / "out.txt"
        status, out, err = run_cli(capsys, *command, "--out", str(target))
        assert status == EXIT_USAGE
        assert out == ""
        assert err.startswith("tamari: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ("table", "internal", "--nmax", "9"),
        ("verify", "euler", "--nmax", "9"),
    ], ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["no-directory", "a-directory"])
    def test_unwritable_out_is_refused_before_the_work(
            self, capsys, monkeypatch, tmp_path, command, missing):
        def refuse(**kwargs):
            raise AssertionError("the work started")

        kind, name = command[:2]
        registry = TABLES if kind == "table" else SUITES
        monkeypatch.setitem(registry, name, (refuse, registry[name][1]))
        target = tmp_path / "no-such-directory" / "x.json" if missing \
            else tmp_path
        status, out, err = run_cli(capsys, *command, "--out", str(target))
        assert status == EXIT_USAGE
        assert out == ""
        assert err.startswith("tamari: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, status", [
        (("table", "refined-pq", "--nmax", "6", "--budget", "10"),
         EXIT_BUDGET),
        (("verify", "polynomial", "--order", "3"), EXIT_VERIFY),
    ], ids=lambda value: value[1] if isinstance(value, tuple) else None)
    def test_failed_run_keeps_an_existing_out_file(self, capsys, monkeypatch,
                                                   tmp_path, argv, status):
        if argv[1] == "polynomial":
            # Newton's quotient one too high at the last power: the root's
            # residual self-check raises inside the suite, before the
            # report is written
            div_by_unit = TruncatedSeries.div_by_unit

            def off_at_the_top(numerator, den):
                quotient = div_by_unit(numerator, den)
                return quotient + TruncatedSeries.one(
                    quotient.order).mul_t(quotient.order)

            monkeypatch.setattr(TruncatedSeries, "div_by_unit",
                                off_at_the_top)
        target = tmp_path / "out.txt"
        target.write_bytes(b"earlier contents\n")
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (status,
                                                                   "")
        assert target.read_bytes() == b"earlier contents\n"

    def test_failed_build_keeps_an_existing_out_file(self, capsys,
                                                     monkeypatch, tmp_path):
        # the table is built before --out is opened: a row that fails
        # part-way through the build leaves the earlier file as it was
        term_row = formulas.term_row

        def fail_at_row_three(term, n):
            if n == 3:
                raise ArithmeticError("non-exact division in term_row")
            return term_row(term, n)

        monkeypatch.setattr("tamari.cli.term_row", fail_at_row_three)
        target = tmp_path / "out.csv"
        target.write_bytes(b"earlier contents\n")
        status, out, _ = run_cli(capsys, "table", "a", "--nmax", "4",
                                 "--out", str(target))
        assert (status, out) == (EXIT_VERIFY, "")
        assert target.read_bytes() == b"earlier contents\n"

    def test_inexact_ratio_row_exits_four(self, capsys, monkeypatch):
        # table b steps each row from b(n, 0) by its term ratio: a wrong
        # start leaves a remainder at a later step, which exits 4
        evaluate = formulas.term_value

        def bumped(term, n, k=0):
            return evaluate(term, n, k) + ((term, n, k) == (formulas.B, 5, 0))

        monkeypatch.setattr("tamari.formulas.term_value", bumped)
        assert run_cli(capsys, "table", "b")[:2] == (EXIT_VERIFY, "")

    @pytest.mark.parametrize(
        "command", [("table", name) for name in TABLES]
        + [("verify", name) for name in SUITES], ids="-".join)
    def test_every_option_at_its_minimum_exits_zero(self, capsys, command):
        # the smallest declared value is meaningful: it passes, not fails
        kind, name = command
        reads = (TABLES if kind == "table" else SUITES)[name][1]
        argv = [f"--{option}={minimum}"
                for option, (_, minimum) in reads.items()
                if minimum is not None]
        assert run_cli(capsys, *command, *argv)[0] == 0

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
