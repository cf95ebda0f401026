"""Tamari lattice enumeration and the interval engine.

Core claims:
    - all_trees counts are the Catalan numbers; the test helpers
      all_schroeder_trees and schroeder_count agree (little Schröder
      numbers)
    - the bitmask engine's down-sets equal rotation BFS (oracle route)
    - interval counts match 2(4n+1)!/((n+1)!(3n+2)!)
    - the cover-statistic histogram matches both the closed product
      formula and rows frozen from independent tabulation
    - refined tables: by (ell(s), des(s)+asc(t)) (interval_stats_refined,
      summed from contact_cells, the tally by ((ell(s), des(s)),
      (asc(t), ell(t) == 0))) and by (des(s), asc(t)) (paths.cover_table),
      frozen blocks, marginals, symmetry of the (p, q) table, and the
      Narayana top row
    - StatTable accessors behave (total, value, axis_range, marginal)
    - enumeration and engine construction respect budgets
"""

import pytest

from conftest import (
    all_schroeder_trees,
    interval_pairs,
    left_comb,
    schroeder_count,
    tree_pool,
)
from tamari.formulas import a_formula, catalan, interval_count_formula
from tamari.lattice import (
    BudgetExceeded,
    StatTable,
    all_trees,
    contact_cells,
    interval_count,
    interval_histogram,
    interval_stats_refined,
    intervals,
    rotation_down_set,
)
from tamari.paths import cover_table, resolve_budget
from tamari.trees import asc, des, ell, tamari_leq

# [1, 1, 3, 13, 68, 399, 2530, 16965, 118668, 857956] -- interval counts
INTERVAL_COUNTS = [1, 1, 3, 13, 68, 399, 2530, 16965, 118668, 857956]

# cover-statistic histograms, frozen per row (k = 0..n-1)
HISTOGRAM_ROWS = {
    1: [1],
    2: [1, 2],
    3: [1, 6, 6],
    4: [1, 12, 33, 22],
    5: [1, 20, 105, 182, 91],
    6: [1, 30, 255, 816, 1020, 408],
    7: [1, 42, 525, 2660, 5985, 5814, 1938],
    8: [1, 56, 966, 7084, 24794, 42504, 33649, 9614],
    9: [1, 72, 1638, 16380, 81900, 215280, 296010, 197340, 49335],
}

# by (ell(s), k = des(s)+asc(t)): rows i = 0..n-1, columns k = 0..n-1
REFINED_ELL_ROWS = {
    4: {0: [0, 1, 6, 6], 1: [0, 2, 9, 9], 2: [0, 3, 12, 6], 3: [1, 6, 6, 1]},
    5: {0: [0, 1, 12, 33, 22], 1: [0, 2, 19, 47, 32], 2: [0, 3, 24, 52, 26],
        3: [0, 4, 30, 40, 10], 4: [1, 10, 20, 10, 1]},
}

# marginals of the previous table over k (counts by ell of the bottom tree)
ELL_MARGINALS = {
    4: [13, 20, 21, 14],
    5: [68, 100, 105, 84, 42],
}

# by (p, q) = (des(s), asc(t)): rows p, columns q, staircase p+q <= n-1
REFINED_PQ_ROWS = {
    4: {0: [1, 6, 6, 1], 1: [6, 21, 10], 2: [6, 10], 3: [1]},
    5: {0: [1, 10, 20, 10, 1], 1: [10, 65, 81, 20], 2: [20, 81, 49],
        3: [10, 20], 4: [1]},
}


# == generators =====================================================

class TestGenerators:
    @pytest.mark.parametrize("n", range(10))
    def test_catalan_many_trees(self, n):
        pool = all_trees(n)
        assert len(pool) == catalan(n)
        assert len(set(pool)) == len(pool)

    def test_catalan_large(self):
        assert catalan(9) == 4862
        assert len(all_trees(12, budget=10**6)) == catalan(12)

    @pytest.mark.parametrize(
        "nleaves,count", [(1, 1), (2, 1), (3, 3), (4, 11), (5, 45), (6, 197)])
    def test_schroeder_counts(self, nleaves, count):
        assert schroeder_count(nleaves) == count
        pool = all_schroeder_trees(nleaves)
        assert len(pool) == count
        assert len(set(pool)) == count

    def test_binary_trees_among_schroeder(self):
        # binary trees with n nodes sit inside the (n+1)-leaf Schröder trees
        for n in range(1, 6):
            pool = set(all_schroeder_trees(n + 1))
            assert set(all_trees(n)) <= pool

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            all_trees(-1)
        with pytest.raises(ValueError):
            schroeder_count(0)


# == engine vs. rotation BFS oracle =================================

class TestEngineOracle:
    @pytest.mark.parametrize(
        "n", [*range(1, 8), pytest.param(8, marks=pytest.mark.extended)])
    def test_down_sets_match_bfs(self, n):
        # dual route: the engine's interval membership vs explicit BFS
        pool = tree_pool(n)
        down = {t: rotation_down_set(t) for t in pool}
        pairs = set(interval_pairs(n))
        for t in pool:
            for s in pool:
                assert ((s, t) in pairs) == (s in down[t])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_intervals_agree_with_order(self, n):
        for s, t, d, a in intervals(n):
            assert tamari_leq(s, t)
            assert d == des(s) and a == asc(t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_interval_multiplicity_free(self, n):
        seen = list(interval_pairs(n))
        assert len(seen) == len(set(seen))
        assert len(seen) == interval_count(n)


# == counts and histograms ==========================================

class TestCounts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_interval_count_formula(self, n):
        assert interval_count(n) == interval_count_formula(n)
        assert interval_count(n) == INTERVAL_COUNTS[n]

    @pytest.mark.parametrize("n", sorted(HISTOGRAM_ROWS)[:-1])
    def test_histogram_frozen_and_formula(self, n):
        hist = interval_histogram(n)
        assert hist == HISTOGRAM_ROWS[n]
        assert hist == [a_formula(n, k) for k in range(n)]
        assert sum(hist) == interval_count(n)

    @pytest.mark.extended
    def test_histogram_n9(self):
        hist = interval_histogram(9, budget=10**6)
        assert hist == HISTOGRAM_ROWS[9]
        assert hist == [a_formula(9, k) for k in range(9)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_histogram_by_direct_count(self, n):
        # oracle route: tally des(s) + asc(t) straight off the pairs
        hist = [0] * n
        for s, t in interval_pairs(n):
            hist[des(s) + asc(t)] += 1
        assert hist == interval_histogram(n)

    def test_extremes(self):
        # k = 0 forces des(s) = asc(t) = 0, i.e. s is the left comb and
        # t the right comb; exactly one such interval
        for n in range(2, 7):
            assert interval_histogram(n)[0] == 1
        assert interval_histogram(1) == [1]


# == refined statistics =============================================

class TestRefined:
    @pytest.mark.parametrize("n", sorted(REFINED_ELL_ROWS))
    def test_by_ell_frozen(self, n):
        by_ell = interval_stats_refined(n)
        assert by_ell.axes == ("ell_lower", "cover_statistic")
        for i, row in REFINED_ELL_ROWS[n].items():
            assert [by_ell.value(i, k) for k in range(n)] == row

    @pytest.mark.parametrize("n", sorted(REFINED_PQ_ROWS))
    def test_by_pq_frozen(self, n):
        by_pq = cover_table(1, n)
        assert by_pq.axes == ("des_lower", "asc_upper")
        for p, row in REFINED_PQ_ROWS[n].items():
            assert [by_pq.value(p, q) for q in range(len(row))] == row
            # staircase: no mass beyond p + q = n - 1
            for q in range(len(row), n):
                assert by_pq.value(p, q) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_refined_by_direct_count(self, n):
        # oracle route for both tables at once
        ell_cells: dict = {}
        pq_cells: dict = {}
        for s, t in interval_pairs(n):
            k1 = (ell(s), des(s) + asc(t))
            k2 = (des(s), asc(t))
            ell_cells[k1] = ell_cells.get(k1, 0) + 1
            pq_cells[k2] = pq_cells.get(k2, 0) + 1
        by_ell = interval_stats_refined(n)
        by_pq = cover_table(1, n)
        assert dict(by_ell.cells) == ell_cells
        assert dict(by_pq.cells) == pq_cells

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contact_cells_by_direct_count(self, n):
        cells: dict = {}
        for s, t in interval_pairs(n):
            key = ((ell(s), des(s)), (asc(t), ell(t) == 0))
            cells[key] = cells.get(key, 0) + 1
        assert contact_cells(n) == cells

    @pytest.mark.parametrize("n", sorted(ELL_MARGINALS))
    def test_ell_marginal_frozen(self, n):
        by_ell = interval_stats_refined(n)
        marg = by_ell.marginal(0)
        assert [marg[i] for i in range(n)] == ELL_MARGINALS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_marginals_recover_histogram(self, n):
        by_ell = interval_stats_refined(n)
        by_pq = cover_table(1, n)
        hist = interval_histogram(n)
        marg = by_ell.marginal(1)
        assert [marg.get(k, 0) for k in range(n)] == hist
        fold: dict = {}
        for (p, q), c in by_pq.cells.items():
            fold[p + q] = fold.get(p + q, 0) + c
        assert [fold.get(k, 0) for k in range(n)] == hist

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pq_table_symmetric(self, n):
        by_pq = cover_table(1, n)
        for (p, q), c in by_pq.cells.items():
            assert by_pq.value(q, p) == c

    @pytest.mark.parametrize("n", range(2, 8))
    def test_narayana_top_row(self, n):
        # ell(s) = n-1 forces s to be the left comb, so the row counts
        # upper trees by asc(t): the Narayana numbers
        by_ell = interval_stats_refined(n)
        row = [by_ell.value(n - 1, k) for k in range(n)]
        from math import comb
        narayana = [comb(n, k) * comb(n, k + 1) // n for k in range(n)]
        assert row == narayana

    def test_left_comb_row_explicitly(self):
        n = 5
        by_ell = interval_stats_refined(n)
        lc = left_comb(n)
        above = [t for s, t in interval_pairs(n) if s == lc]
        assert len(above) == catalan(n)
        assert sum(by_ell.value(n - 1, k) for k in range(n)) == catalan(n)


# == StatTable API ==================================================

class TestStatTable:
    def test_accessors(self):
        table = StatTable(3, ("x", "y"), {(0, 1): 4, (2, 0): 6})
        assert table.total == 10
        assert table.value(0, 1) == 4
        assert table.value(1, 1) == 0
        assert table.axis_range(0) == range(3)
        assert table.axis_range(1) == range(2)
        assert table.marginal(0) == {0: 4, 2: 6}
        assert table.marginal(1) == {1: 4, 0: 6}

    def test_empty(self):
        table = StatTable(0, ("x",), {})
        assert table.total == 0
        assert table.axis_range(0) == range(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_totals_are_interval_counts(self, n):
        by_ell = interval_stats_refined(n)
        by_pq = cover_table(1, n)
        assert by_ell.total == by_pq.total == interval_count(n)


# == budgets ========================================================

class TestBudgets:
    def test_resolve(self, monkeypatch):
        monkeypatch.delenv("TAMARI_BUDGET", raising=False)
        assert resolve_budget(123) == 123
        monkeypatch.setenv("TAMARI_BUDGET", "77")
        assert resolve_budget() == 77
        with pytest.raises(ValueError):
            resolve_budget(0)
        # only an int that is not a bool: no silent int() of the value
        for bad in (2.9, True, "5"):
            with pytest.raises(ValueError, match=f"budget {bad!r} is not "
                               "an integer"):
                resolve_budget(bad)

    def test_tree_budget(self):
        with pytest.raises(BudgetExceeded) as info:
            all_trees(10, budget=100)
        assert info.value.budget == 100

    def test_interval_budget(self, no_engine):
        # refused on the closed form, before any tree is generated
        with pytest.raises(BudgetExceeded) as info:
            interval_count(8, budget=1000)
        assert info.value.required == interval_count_formula(8)

    def test_schroeder_budget(self):
        with pytest.raises(BudgetExceeded):
            all_schroeder_trees(8, budget=10)

    def test_budget_error_message(self):
        err = BudgetExceeded("all_trees(10)", 16796, 100)
        assert "16796" in str(err) and "100" in str(err)
        assert "TAMARI_BUDGET" in str(err)
