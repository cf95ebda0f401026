"""Closed-form count formulas and their printed identities.

Core claims:
    - catalan / fuss_catalan / schroeder agree with frozen values
    - a_formula rows and b_formula rows match frozen tabulations,
      b is the binomial transform of a, and row sums close up
    - every public count formula equals its binomial/factorial oracle
      (tests/conftest.py) at every k in -2..n+2 for n <= 40, and a and b
      at (6000, 3000); term_row, stepped by the term ratio of the same
      Gamma list, gives the oracle rows for n <= 200; a b row from a wrong
      b(n, 0) hits a remainder; raising one gamma of any list by one
      leaves the oracle or hits a remainder
    - the four printed forms of the synchronized count agree
    - refined (by ell) and separated (by des) formulas match frozen
      rows, close to the right marginals, and hit Catalan at the edges
    - new_interval_formula matches its frozen row
    - the m-interval formula matches frozen grid values
    - the contracted Chu-Vandermonde identity holds on frozen
      quadruples and on a searchable grid
    - two-term and telescoped recurrences hold; the telescoped check
      builds each row once, and its face side reads the rows of the B
      list and fails on one wrong face count; the telescoped eta2 shifted
      by one reproduces its printed face-side form
    - every formula divides exactly; _exact_div raises on a lie, and its
      message gives the operands' bit lengths, not their digits
    - the internal rows from the face rows alone, to n = 40: n cells
      each, the new intervals first, the synchronized count last, an
      alternating sum of (-1)^(n-1); internal_row_products is the exact
      number of coefficient products the recursion makes
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    oracle_a,
    oracle_b,
    oracle_m_intervals,
    oracle_refined,
    oracle_separated,
)
from tamari import formulas
from tamari.equations import eta_polynomials
from tamari.formulas import (
    A,
    B,
    REFINED,
    SEPARATED,
    _exact_div,
    a_formula,
    b_formula,
    binomial,
    catalan,
    chu_vandermonde_check,
    chu_vandermonde_sides,
    fuss_catalan,
    internal_row_products,
    internal_rows,
    interval_count_formula,
    interval_row_polynomial,
    m_tamari_intervals_formula,
    new_interval_formula,
    refined_formulas,
    separated_formula,
    specialization_suite,
    synchronized_formula,
    synchronized_variants,
    telescoped_recurrence_check,
    term_row,
    two_term_recurrence_check,
)
from tamari.paths import FALLBACK_BUDGET
from tamari.polys import ZPolynomial

A_ROWS = {
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

B_ROWS = {
    1: [1],
    2: [3, 2],
    3: [13, 18, 6],
    4: [68, 144, 99, 22],
    5: [399, 1140, 1197, 546, 91],
    6: [2530, 9108, 12903, 8976, 3060, 408],
    7: [16965, 73710, 131625, 123500, 64125, 17442, 1938],
    8: [118668, 604128, 1302651, 1540770, 1078539, 446292, 100947, 9614],
    9: [857956, 5008608, 12660648, 18086640, 15958800,
        8898240, 3058770, 592020, 49335],
}

REFINED_ROWS = {
    4: [13, 20, 21, 14],
    5: [68, 100, 105, 84, 42],
    9: [118668, 161820, 166257, 147420, 115500, 78936, 45045, 19448, 4862],
}

SEPARATED_ROWS = {
    5: [1, 20, 49, 20, 1],
    9: [1, 120, 2310, 12012, 20449, 12012, 2310, 120, 1],
}

NEW_INTERVAL_ROW = [1, 1, 3, 12, 56, 288, 1584]  # n = 1..7

M_INTERVALS_GRID = {
    (1, 4): 68, (2, 4): 703, (3, 4): 3685, (4, 4): 13390,
    (5, 4): 38591, (6, 4): 94738,
    (2, 5): 9729, (3, 7): 73083880, (2, 9): 691986438,
    (6, 9): 524898029145217,
}

# each public formula, its oracle and the grid it is compared on
FORMULA_ORACLES = {
    "a": (a_formula, oracle_a, "cells"),
    "b": (b_formula, oracle_b, "cells"),
    "refined": (refined_formulas, oracle_refined, "cells"),
    "separated": (separated_formula, oracle_separated, "cells"),
    "catalan": (catalan, lambda n: comb(2 * n, n) // (n + 1), "n"),
    "synchronized": (synchronized_formula,
                     lambda n: 2 * comb(3 * n, n) // ((n + 1) * (2 * n + 1)),
                     "n"),
    "fuss-catalan": (fuss_catalan,
                     lambda m, n: comb((m + 1) * n, n) // (m * n + 1), "m"),
    "m-intervals": (m_tamari_intervals_formula, oracle_m_intervals, "m"),
}

GRIDS = {
    "cells": [(n, k) for n in range(1, 41) for k in range(-2, n + 3)],
    "n": [(n,) for n in range(1, 41)],
    "m": [(m, n) for m in range(1, 7) for n in range(1, 41)],
}


def _raised(term, index):
    """The term with the gamma of one factor raised by one."""
    c, factors = term
    a, b, g, e = factors[index]
    return c, factors[:index] + ((a, b, g + 1, e),) + factors[index + 1:]


CHU_QUADRUPLES = [
    (4, 1, 9, 702), (6, 2, 7, 4620), (5, 0, 15, 5985), (3, 2, 4, 6),
    (5, 2, 3, 63), (7, 0, 4, 924),
]


# == base sequences =================================================

class TestBaseSequences:
    def test_catalan(self):
        assert [catalan(n) for n in range(10)] == \
            [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
        with pytest.raises(ValueError):
            catalan(-1)

    def test_fuss_catalan(self):
        assert [fuss_catalan(1, n) for n in range(8)] == \
            [1, 1, 2, 5, 14, 42, 132, 429]
        assert [fuss_catalan(2, n) for n in range(6)] == \
            [1, 1, 3, 12, 55, 273]
        assert fuss_catalan(3, 4) == 140
        with pytest.raises(ValueError):
            fuss_catalan(0, 3)

    def test_binomial_out_of_range(self):
        assert binomial(5, 2) == comb(5, 2)
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(-2, 0) == 0

    def test_exact_div_raises(self):
        assert _exact_div(12, 4, "demo") == 3
        with pytest.raises(ArithmeticError):
            _exact_div(13, 4, "demo")

    def test_exact_div_reports_sizes_past_the_digit_limit(self):
        # formatting the 5,001-digit operand would raise ValueError (the
        # int-to-str limit) in place of the ArithmeticError
        with pytest.raises(ArithmeticError) as raised:
            _exact_div(10**5000 + 1, 10, "demo")
        assert str(raised.value) == (
            "non-exact division in demo: a 16610-bit numerator over a"
            " 4-bit denominator")


# == interval and face count rows ===================================

class TestRows:
    @pytest.mark.parametrize("n", sorted(A_ROWS))
    def test_a_rows_frozen(self, n):
        assert [a_formula(n, k) for k in range(n)] == A_ROWS[n]
        assert a_formula(n, n) == 0
        assert a_formula(n, -1) == 0

    @pytest.mark.parametrize("n", sorted(B_ROWS))
    def test_b_rows_frozen(self, n):
        assert [b_formula(n, k) for k in range(n)] == B_ROWS[n]
        assert b_formula(n, n) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_b_is_binomial_transform_of_a(self, n):
        for k in range(n):
            assert b_formula(n, k) == sum(
                a_formula(n, l) * comb(l, k) for l in range(k, n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_sums(self, n):
        assert sum(a_formula(n, k) for k in range(n)) == b_formula(n, 0)
        assert interval_count_formula(n) == b_formula(n, 0)

    def test_ratio_rows_are_the_formula_rows(self):
        for n in range(1, 201):
            assert term_row(A, n) == [oracle_a(n, k) for k in range(n)]
            assert term_row(B, n) == [oracle_b(n, k) for k in range(n)]
        for n in range(1, 41):
            assert term_row(REFINED, n) == [oracle_refined(n, k)
                                            for k in range(n)]
            assert term_row(SEPARATED, n) == [oracle_separated(n, k)
                                              for k in range(n)]

    @pytest.mark.parametrize("n", range(2, 12))
    def test_ratio_row_from_a_wrong_start_is_inexact(self, monkeypatch, n):
        evaluate = formulas.term_value

        def bumped(term, m, k=0):
            return evaluate(term, m, k) + ((m, k) == (n, 0))

        monkeypatch.setattr("tamari.formulas.term_value", bumped)
        with pytest.raises(ArithmeticError, match="non-exact division "
                                                  "in term_row"):
            term_row(B, n)
        assert term_row(B, n + 1) == [oracle_b(n + 1, k)
                                      for k in range(n + 1)]

    @pytest.mark.parametrize("name", sorted(FORMULA_ORACLES))
    def test_formula_is_its_oracle(self, name):
        formula, oracle, grid = FORMULA_ORACLES[name]
        for args in GRIDS[grid]:
            assert formula(*args) == oracle(*args), args

    def test_large_cells_are_the_oracle(self):
        assert a_formula(6000, 3000) == oracle_a(6000, 3000)
        assert b_formula(6000, 3000) == oracle_b(6000, 3000)

    @pytest.mark.parametrize("name", sorted(FORMULA_ORACLES))
    def test_raised_gamma_leaves_the_oracle(self, monkeypatch, name):
        # negative control: each public formula reads its list, and the
        # oracle tells a list with one gamma raised by one
        formula, oracle, grid = FORMULA_ORACLES[name]
        evaluate = formulas.term_value
        monkeypatch.setattr("tamari.formulas.term_value",
                            lambda term, n, k=0: evaluate(_raised(term, 0),
                                                          n, k))
        try:
            values = [formula(*args) for args in GRIDS[grid]]
        except ArithmeticError:
            return
        assert values != [oracle(*args) for args in GRIDS[grid]]

    @pytest.mark.parametrize("term,oracle", [
        (A, oracle_a), (B, oracle_b), (REFINED, oracle_refined),
        (SEPARATED, oracle_separated),
    ], ids=["A", "B", "REFINED", "SEPARATED"])
    def test_raised_gamma_leaves_the_oracle_rows(self, term, oracle):
        # the start and the term ratio both come from the list: raising
        # any one gamma changes some row of n <= 8 or leaves a remainder
        for index in range(len(term[1])):
            try:
                rows = [term_row(_raised(term, index), n)
                        for n in range(1, 9)]
            except ArithmeticError:
                continue
            assert rows != [[oracle(n, k) for k in range(n)]
                            for n in range(1, 9)], index

    @pytest.mark.parametrize("call", [
        lambda: a_formula(0, 0), lambda: b_formula(0, 0),
        lambda: refined_formulas(0, 0), lambda: separated_formula(0, 0),
        lambda: synchronized_formula(0), lambda: synchronized_variants(0),
        lambda: new_interval_formula(0), lambda: specialization_suite(0),
        lambda: m_tamari_intervals_formula(1, 0),
        lambda: m_tamari_intervals_formula(0, 1),
    ])
    def test_sizes_below_the_support_are_refused(self, call):
        with pytest.raises(ValueError):
            call()

    def test_interval_count_sequence(self):
        assert [interval_count_formula(n) for n in range(1, 10)] == \
            [1, 3, 13, 68, 399, 2530, 16965, 118668, 857956]

    def test_row_polynomial(self):
        poly = interval_row_polynomial(4)
        assert poly.coeffs == (1, 12, 33, 22)
        assert poly.evaluate(1) == 68


# == synchronized counts ============================================

class TestSynchronized:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_variants_agree(self, n):
        variants = synchronized_variants(n)
        assert len(set(variants)) == 1
        assert variants[0] == a_formula(n, n - 1)
        assert synchronized_formula(n) == b_formula(n, n - 1)

    def test_frozen(self):
        assert [synchronized_formula(n) for n in range(1, 8)] == \
            [1, 2, 6, 22, 91, 408, 1938]

    @pytest.mark.parametrize("n", sorted(SEPARATED_ROWS))
    def test_separated_rows_frozen(self, n):
        row = [separated_formula(n, p) for p in range(n)]
        assert row == SEPARATED_ROWS[n]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_separated_row_properties(self, n):
        row = [separated_formula(n, p) for p in range(n)]
        assert row == row[::-1]  # symmetric in p <-> n-1-p
        assert sum(row) == synchronized_formula(n)
        assert separated_formula(n, n) == 0


# == refined and new-interval counts ================================

class TestRefined:
    @pytest.mark.parametrize("n", sorted(REFINED_ROWS))
    def test_rows_frozen(self, n):
        assert [refined_formulas(n, i) for i in range(n)] == REFINED_ROWS[n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_properties(self, n):
        row = [refined_formulas(n, i) for i in range(n)]
        assert sum(row) == interval_count_formula(n)
        assert row[n - 1] == catalan(n)  # bottom tree = left comb
        assert refined_formulas(n, n) == 0

    def test_new_interval_frozen(self):
        assert [new_interval_formula(n) for n in range(1, 8)] == \
            NEW_INTERVAL_ROW

    def test_m_intervals_frozen(self):
        for (m, n), value in M_INTERVALS_GRID.items():
            assert m_tamari_intervals_formula(m, n) == value

    @pytest.mark.parametrize("n", range(1, 10))
    def test_m_intervals_slope_one(self, n):
        assert m_tamari_intervals_formula(1, n) == interval_count_formula(n)


# == identities =====================================================

class TestIdentities:
    @pytest.mark.parametrize("n,k,r,value", CHU_QUADRUPLES)
    def test_chu_vandermonde_frozen(self, n, k, r, value):
        lhs, rhs = chu_vandermonde_sides(n, k, r)
        assert lhs == rhs == value

    @given(st.integers(1, 30), st.integers(0, 30), st.integers(0, 30))
    def test_chu_vandermonde_grid(self, n, k, r):
        assert chu_vandermonde_check(n, k, r)

    def test_chu_vandermonde_rhs_is_integral(self):
        for n in range(1, 12):
            for k in range(n):
                for r in range(8):
                    _, rhs = chu_vandermonde_sides(n, k, r)
                    assert isinstance(rhs, Fraction)
                    assert rhs.denominator == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_specializations(self, n):
        report = specialization_suite(n)
        assert report["ok"], report["failures"]
        assert report["checked"] == 8

    def test_two_term_recurrences(self):
        report = two_term_recurrence_check(20)
        assert report["ok"], report["failures"]
        assert report["checked"] == sum(
            (n - 1) + (n - 1) for n in range(2, 21))

    def test_telescoped_recurrence(self):
        report = telescoped_recurrence_check(12)
        assert report["ok"], report["failures"]
        assert report["checked"] == 24

    def test_telescoped_check_builds_each_row_once(self, monkeypatch):
        # rows 1..n_max+2 of each weighting, one term_row call each
        calls = Counter()
        row_of = formulas.term_row

        def counted(term, n):
            calls[term, n] += 1
            return row_of(term, n)

        monkeypatch.setattr("tamari.formulas.term_row", counted)
        assert telescoped_recurrence_check(12)["ok"]
        assert calls == Counter({(term, n): 1 for term in (A, B)
                                 for n in range(1, 15)})

    def test_telescoped_face_side_reads_the_face_formula(self, monkeypatch):
        # one wrong face count must fail the face side, and only it
        row_of = formulas.term_row

        def bumped(term, n):
            row = row_of(term, n)
            if term is B and n == 5:
                row[2] += 1
            return row

        monkeypatch.setattr("tamari.formulas.term_row", bumped)
        report = telescoped_recurrence_check(12)
        assert not report["ok"]
        assert report["checked"] == 24
        assert {f["side"] for f in report["failures"]} == {"face"}
        # b(5, .) enters the rows of n = 3, 4, 5
        assert [f["n"] for f in report["failures"]] == [3, 4, 5]


# == telescoped coefficients ========================================

class TestEtaPolynomials:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_shifted_eta2_matches_printed_face_side(self, n):
        # the face-count recurrence is printed with its own eta2; our
        # implementation reaches it by shifting z, so the two must agree
        _, _, eta2 = eta_polynomials(n)
        printed = ZPolynomial((
            -32 * n**2 - 64 * n - 30,
            -4 * n**2 - 8 * n,
            n**2 + 2 * n,
        )).scale(3 * (3 * n + 7) * (n + 3) * (3 * n + 8))
        assert eta2.shift_z(1) == printed

    @pytest.mark.parametrize("n", range(1, 9))
    def test_degrees(self, n):
        eta0, eta1, eta2 = eta_polynomials(n)
        assert eta0.degree() == 6
        assert eta1.degree() == 5
        assert eta2.degree() == 2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            eta_polynomials(0)


# == internal rows from the face rows ===============================

@lru_cache(maxsize=None)
def _rows_to_forty():
    return internal_rows(40)


class TestInternalRows:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_row_edges_and_alternating_sum(self, n):
        row = _rows_to_forty()[n - 1]
        assert len(row) == n
        assert row[0] == new_interval_formula(n)
        assert row[n - 1] == synchronized_formula(n)
        assert sum((-1) ** k * c for k, c in enumerate(row)) \
            == (-1) ** (n - 1)

    def test_shorter_run_is_a_prefix(self):
        assert internal_rows(12) == _rows_to_forty()[:12]
        assert internal_rows(0) == []

    @pytest.mark.parametrize("nmax", range(13))
    def test_product_count_is_exact(self, monkeypatch, nmax):
        add_product = formulas._add_product
        products = []

        def counted(target, p, q, sign=1):
            products.append(len(p) * len(q))
            add_product(target, p, q, sign)

        monkeypatch.setattr("tamari.formulas._add_product", counted)
        internal_rows(nmax)
        assert sum(products) == internal_row_products(nmax)

    def test_default_budget_admits_forty(self):
        assert internal_row_products(40) == 973_258 <= FALLBACK_BUDGET
        assert internal_row_products(50) == 2_890_510 > FALLBACK_BUDGET
