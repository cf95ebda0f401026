"""Truncated series, the quartic equation, and the analytic identities.

Core claims:
    - TruncatedSeries is an immutable exact ring truncated in t:
      operations land on the common order, equality compares up to the
      common order, units invert, calculus behaves
    - the quartic is derived, not trusted: the resultant in s of the
      rational parametrization t(s+1)(sz+1)^3 - s, X - s + zs^2 + zs^3
      is z^3 times it, term by term, and one changed coefficient of
      either side breaks the equality; its 34 terms reach X^4 and it is
      regular at the origin; shifting z by one reproduces the printed
      face-side quartic
    - the rational parametrization lies on the quartic exactly: with its
      denominator cleared, the substitution is the zero polynomial
    - newton_solve extracts the interval series: its rows are the
      interval row polynomials, z = 1 gives interval counts, z = 0
      gives t/(1-t), and the shifted root solves the shifted equation;
      at every order to 20 it is the order-20 root truncated, its steps
      running at the doubling orders 1, 3, 7, 15, then the full order
    - Lagrange: S = t·phi(S, z), solved by Newton on X - t·phi(X, z),
      gives the quartic root through the rational parametrization, and
      lagrange_coeff matches its coefficients and the two printed closed
      coefficient forms
    - the catalytic system, the three differential operators, and the
      canopy-pair system all check out; a perturbed series fails, and so
      does the catalytic check on a raised cell, a count moved between
      the ell(t) classes or a dropped row of lattice.contact_cells, and
      the canopy-pair check on a raised (des, asc) cell
    - canopy_cells, the canopy-pair system solved degree by degree and
      read as rows by canopy_rows, is the (des, asc) cover table for
      n <= 10 (n = 11, 12 in test_paths, extended); to n = 20 its
      anti-diagonals are a(n, k), its p+q = n-1 cells the separated
      counts, and it is symmetric in (p, q); to n = 20 (n = 30,
      extended) its p+q = n-2 cells, the intervals whose canopies
      disagree at one place, are a closed form; it makes
      exactly canopy_cell_products(D) coefficient products, which the
      default budget admits to n = 22; one wrong coefficient in any of
      them fails its self-check
"""

from fractions import Fraction
from math import comb

import pytest

from conftest import oracle_one_disagreement, resultant
from tamari import polys
from tamari.equations import pde_operators
from tamari.formulas import (
    a_formula,
    interval_count_formula,
    interval_row_polynomial,
    separated_formula,
)
from tamari.lattice import contact_cells
from tamari.paths import FALLBACK_BUDGET, cover_table
from tamari.polys import MonomialPolynomial, ZPolynomial
from tamari.series import (
    TruncatedSeries,
    apply_differential_operator,
    canopy_cell_products,
    canopy_cells,
    canopy_rows,
    catalytic_equation_check,
    cleared_parametrization,
    fusy_humbert_check,
    lagrange_coeff,
    newton_solve,
    quartic_equation,
    substitute,
    verify_parametrization,
    verify_pde,
)

# phi for S = t(z+S)(1+S)^3, in (s, z)
PHI_CANOPY = MonomialPolynomial(2, {
    (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1,
    (1, 0): 1, (2, 0): 3, (3, 0): 3, (4, 0): 1})
# phi for the parametrization variable: s = t(s+1)(sz+1)^3
PHI_PARAM = MonomialPolynomial(2, {
    (0, 0): 1, (1, 0): 1, (1, 1): 3, (2, 1): 3, (2, 2): 3,
    (3, 2): 3, (3, 3): 1, (4, 3): 1})


def lagrange_root(phi: MonomialPolynomial, order: int) -> TruncatedSeries:
    """S = t·phi(S, z) as the root of X - t·phi(X, z), in (t, z, X)."""
    terms = {(1, j, i): -c for (i, j), c in phi.terms.items()}
    terms[(0, 0, 1)] = 1
    return newton_solve(MonomialPolynomial(3, terms), order)


def contact_rows(order: int) -> dict:
    """The rows catalytic_equation_check reads, as `verify catalytic`
    builds them."""
    return {n: contact_cells(n) for n in range(1, order + 1)}


def cover_rows(total_degree: int) -> dict:
    """The rows fusy_humbert_check reads, as `verify fusy-humbert` builds
    them."""
    return {n: cover_table(1, n).cells for n in range(1, total_degree + 2)}


# == series ring semantics ==========================================

class TestTruncatedSeries:
    def test_construction_pads_and_truncates(self):
        s = TruncatedSeries((1, 2, 3, 4), order=2)
        assert s.coefficient(2) == ZPolynomial((3,))
        with pytest.raises(IndexError):
            s.coefficient(3)
        assert TruncatedSeries.zero(5).is_zero
        assert TruncatedSeries.one(5).coefficient(0) == ZPolynomial((1,))
        with pytest.raises(ValueError):
            TruncatedSeries((), order=-1)

    def test_operations_land_on_common_order(self):
        a = TruncatedSeries((1, 1, 1, 1), order=3)
        b = TruncatedSeries((1, 2), order=1)
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a - b).order == 1

    def test_equality_up_to_common_order(self):
        a = TruncatedSeries((1, 2, 3), order=2)
        b = TruncatedSeries((1, 2), order=1)
        c = TruncatedSeries((1, 5), order=1)
        assert a == b
        assert a != c
        assert a != "not a series"

    def test_immutable_and_unhashable(self):
        s = TruncatedSeries.t(3)
        with pytest.raises(AttributeError):
            s.order = 5
        with pytest.raises(TypeError):
            hash(s)

    def test_valuation(self):
        assert TruncatedSeries.zero(4).valuation() is None
        assert TruncatedSeries.t(4).valuation() == 1
        assert TruncatedSeries.one(4).valuation() == 0

    def test_div_by_unit(self):
        order = 8
        one = TruncatedSeries.one(order)
        geometric = one - TruncatedSeries.t(order)
        inverse = one.div_by_unit(geometric)
        assert all(inverse.coefficient(n) == ZPolynomial((1,))
                   for n in range(order + 1))
        assert (inverse * geometric) == one
        with pytest.raises(ValueError):
            one.div_by_unit(TruncatedSeries.t(order))
        z_head = TruncatedSeries((ZPolynomial((1, 1)),), order)
        with pytest.raises(ValueError):
            one.div_by_unit(z_head)  # constant term must be z-free

    def test_calculus(self):
        order = 5
        t = TruncatedSeries.t(order)
        cubed = t * t * t
        assert cubed.differentiate_t() == TruncatedSeries.from_polynomial(
            {(2, 0): 3}, order - 1)
        with pytest.raises(ValueError):
            TruncatedSeries.one(0).differentiate_t()
        mixed = TruncatedSeries.from_polynomial({(1, 2): 5}, order)
        assert mixed.differentiate_z() == TruncatedSeries.from_polynomial(
            {(1, 1): 10}, order)

    def test_z_operations(self):
        s = TruncatedSeries.from_polynomial({(1, 1): 1}, 3)  # t z
        shifted = s.substitute_z_shift(1)
        assert shifted.coefficient(1) == ZPolynomial((1, 1))  # z + 1
        assert s.evaluate_z(7).coefficient(1) == ZPolynomial((7,))

    def test_truncate(self):
        s = TruncatedSeries((1, 2, 3), order=2)
        assert s.truncate(1).order == 1
        with pytest.raises(ValueError):
            s.truncate(3)

    def test_scale_and_mul_t(self):
        s = TruncatedSeries.one(3).scale(ZPolynomial((0, 1)))  # z
        assert s.coefficient(0) == ZPolynomial((0, 1))
        assert s.mul_t(2).coefficient(2) == ZPolynomial((0, 1))
        assert s.mul_t(2).coefficient(0).is_zero


# == the quartic equation ===========================================

def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _ppow(a: dict, k: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(k):
        out = _pmul(out, a)
    return out


def parametrization_resultant(bump_f: int = 0, bump_g: int = 0):
    """Res_s(t(s+1)(sz+1)^3 - s, X - s + zs^2 + zs^3) in (t, z, X, s),
    with bump_f added to the coefficient t of the first and bump_g to the
    coefficient z of s^3 in the second."""
    t, z, x, s = MonomialPolynomial.variables(4)
    f = t * (s + 1) * (s * z + 1) ** 3 + bump_f * t - s
    g = x - s + z * s**2 + (1 + bump_g) * z * s**3
    return resultant(f, g, 3)


def z_cubed_times(quartic: MonomialPolynomial) -> MonomialPolynomial:
    """z^3·P(t, z, X) in (t, z, X, s)."""
    return MonomialPolynomial(4, {(i, j + 3, k, 0): c
                                  for (i, j, k), c in quartic.terms.items()})


class TestQuartic:
    def test_quartic_is_the_resultant_of_the_parametrization(self):
        # the curve t = s/((s+1)(sz+1)^3), X = s - zs^2 - zs^3 eliminated
        assert parametrization_resultant().terms == \
            z_cubed_times(quartic_equation()).terms

    @pytest.mark.parametrize("bump_f, bump_g, term", [
        (1, 0, None), (0, 1, None),
        (0, 0, (1, 0, 0)), (0, 0, (2, 2, 2)), (0, 0, (3, 6, 4)),
    ])
    def test_resultant_negative_control(self, bump_f, bump_g, term):
        # one changed coefficient of the parametrization, or of the
        # quartic, breaks the equality
        terms = dict(quartic_equation().terms)
        if term is not None:
            terms[term] += 1
        assert parametrization_resultant(bump_f, bump_g).terms != \
            z_cubed_times(MonomialPolynomial(3, terms)).terms

    def test_literal_has_34_terms_to_x_to_the_fourth(self):
        coeffs = quartic_equation().terms
        assert len(coeffs) == 34
        assert max(k for (_, _, k) in coeffs) == 4
        # regular at the origin: the only t-free term of X-degree <= 1 is X
        assert {e for e in coeffs if e[0] == 0 and e[2] <= 1} == {(0, 0, 1)}

    def test_shift_roundtrip(self):
        eq = quartic_equation()
        assert eq.shift(1, 1).shift(1, -1).terms == eq.terms

    def test_shifted_equation_is_the_printed_one(self):
        # z -> z+1 must reproduce the printed face-count quartic,
        # transcribed here in its printed factored form
        T, ZP1 = {(1, 0): 1}, {(0, 0): 1, (0, 1): 1}
        by_x = {
            4: _pmul(_ppow(T, 3), _ppow(ZP1, 6)),
            3: _pmul(_ppow(T, 2), _pmul(_ppow(ZP1, 4), {
                (1, 2): 1, (1, 1): 8, (1, 0): 4, (0, 0): 3})),
            2: _pmul(T, _pmul(_ppow(ZP1, 2), {
                (2, 3): 6, (2, 2): 27, (2, 1): 24, (1, 2): 2, (2, 0): 6,
                (1, 1): -2, (1, 0): 17, (0, 0): 3})),
            1: {(3, 4): 12, (3, 3): 44, (3, 2): 51, (2, 3): -10, (3, 1): 24,
                (2, 2): -4, (3, 0): 4, (2, 1): 28, (1, 2): 1, (2, 0): 25,
                (1, 1): -10, (1, 0): -14, (0, 0): 1},
            0: _pmul(T, {(2, 3): 8, (2, 2): 12, (2, 1): 6, (1, 2): -1,
                         (2, 0): 1, (1, 1): 8, (1, 0): 11, (0, 0): -1}),
        }
        printed = {(i, j, k): c
                   for k, block in by_x.items()
                   for (i, j), c in block.items()}
        assert quartic_equation().shift(1, 1).terms == printed

    def test_singular_equation_rejected(self):
        for terms in ({(0, 0, 0): 1, (0, 0, 1): 1},   # P(0, z, 0) != 0
                      {(1, 0, 0): 1, (0, 0, 2): 1},   # no linear term in X
                      # z in dP/dX(0, z, 0)
                      {(1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}):
            with pytest.raises(ValueError):
                newton_solve(MonomialPolynomial(3, terms), 4)


# == Newton extraction ==============================================

ROOT_ORDER = 10


@pytest.fixture(scope="module")
def root():
    return newton_solve(quartic_equation(), ROOT_ORDER)


class TestNewton:
    ORDER = ROOT_ORDER

    def test_frozen_row(self, root):
        assert root.coefficient(0).is_zero
        assert root.coefficient(1) == ZPolynomial((1,))
        assert root.coefficient(4) == ZPolynomial((1, 12, 33, 22))

    def test_rows_are_interval_polynomials(self, root):
        for n in range(1, self.ORDER + 1):
            assert root.coefficient(n) == interval_row_polynomial(n)

    def test_z_one_counts_intervals(self, root):
        column = root.evaluate_z(1)
        frozen = [0, 1, 3, 13, 68, 399, 2530]
        for n, value in enumerate(frozen):
            assert column.coefficient(n) == ZPolynomial.constant(value)

    def test_z_zero_is_geometric(self, root):
        column = root.evaluate_z(0)
        assert column.coefficient(0).is_zero
        for n in range(1, self.ORDER + 1):
            assert column.coefficient(n) == ZPolynomial((1,))

    def test_shifted_root_solves_shifted_equation(self, root):
        # z-shift compatibility at series level, mod t^11
        shifted_eq = quartic_equation().shift(1, 1)
        shifted_root = newton_solve(shifted_eq, self.ORDER)
        assert shifted_root == root.substitute_z_shift(1)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_every_order_truncates_the_order_twenty_root(self, shift):
        # the doubling schedule ends at the asked order, whatever it is
        eq = quartic_equation().shift(1, 1) if shift else quartic_equation()
        full = newton_solve(eq, 20)
        for order in range(1, 21):
            x = newton_solve(eq, order)
            assert x.order == order
            assert x == full.truncate(order)
        x = newton_solve(eq, 0)
        assert x.order == 0 and x.is_zero

    def test_steps_run_at_doubling_orders(self, monkeypatch):
        # from a root correct mod t^c each step lifts to min(2c - 1, 20);
        # P and P' are substituted once per step, P once more for the
        # full-order residual
        orders = []

        def recording(poly, x):
            orders.append(x.order)
            return substitute(poly, x)

        monkeypatch.setattr("tamari.series.substitute", recording)
        newton_solve(quartic_equation(), 20)
        assert orders == [1, 1, 3, 3, 7, 7, 15, 15, 20, 20, 20]

    def test_shifted_rows_are_face_polynomials(self, root):
        shifted = root.substitute_z_shift(1)
        for n in range(1, self.ORDER + 1):
            row = shifted.coefficient(n)
            for k in range(n):
                expected = sum(a_formula(n, l) * comb(l, k)
                               for l in range(k, n))
                assert row.coefficient(k) == expected


# == Lagrange inversion =============================================

class TestLagrange:
    def test_root_through_parametrization_is_the_quartic_root(self):
        order = 9
        s_series = lagrange_root(PHI_PARAM, order)
        # A = X(s(t)) with X(s) = s - z s^2 - z s^3
        z = ZPolynomial((0, 1))
        s2 = s_series * s_series
        s3 = s2 * s_series
        composed = s_series - s2.scale(z) - s3.scale(z)
        assert composed == newton_solve(quartic_equation(), order)

    def test_printed_coefficient_forms(self):
        # s = t(s+1)(sz+1)^3:      [t^n z^k] s^r = (r/n) C(n,k+r) C(3n,k)
        # S = t(z+S)(1+S)^3:       [t^n z^k] S^r = (r/n) C(n,k) C(3n,k-r)
        for n in range(1, 8):
            for r in range(1, 4):
                for k in range(3 * n + 1):
                    param = Fraction(
                        r * comb(n, k + r) * comb(3 * n, k), n) \
                        if k + r <= n else Fraction(0)
                    assert lagrange_coeff(PHI_PARAM, n, r).get(k, 0) == param
                    canopy = Fraction(
                        r * comb(n, k) * comb(3 * n, k - r), n) \
                        if r <= k <= n else Fraction(0)
                    assert lagrange_coeff(PHI_CANOPY, n, r).get(k, 0) == canopy

    def test_coeff_against_series(self):
        order = 7
        s_series = lagrange_root(PHI_CANOPY, order)
        square = s_series * s_series
        for n in range(1, order + 1):
            for k in range(n + 1):
                assert s_series.coefficient(n).coefficient(k) == \
                    lagrange_coeff(PHI_CANOPY, n, 1).get(k, 0)
                assert square.coefficient(n).coefficient(k) == \
                    lagrange_coeff(PHI_CANOPY, n, 2).get(k, 0)

    def test_catalan_special_case(self):
        # phi = (1+s)^2: [t^n] S is the n-th Catalan number
        phi = MonomialPolynomial(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
        s_series = lagrange_root(phi, 8)
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for n in range(1, 9):
            assert s_series.coefficient(n) == ZPolynomial.constant(
                catalan[n])

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            lagrange_coeff(PHI_CANOPY, 0, 1)
        assert lagrange_coeff(PHI_CANOPY, 2, 3) == {}  # r > n


# == the verification stack =========================================

class TestVerifiers:
    def test_parametrization(self):
        assert verify_parametrization(quartic_equation())

    def test_cleared_parametrization_is_exactly_zero(self):
        # untruncated: the curve lies on the quartic at every order, all z
        cleared = cleared_parametrization(quartic_equation())
        assert cleared.truncation is None
        assert cleared.terms == {}

    def test_parametrization_negative_control(self):
        # one changed coefficient must leave a residual
        terms = dict(quartic_equation().terms)
        terms[(3, 6, 4)] += 1
        assert not verify_parametrization(MonomialPolynomial(3, terms))

    def test_catalytic(self):
        assert catalytic_equation_check(8, contact_rows(8))

    def test_catalytic_negative_controls(self):
        # one raised cell, one count moved from ell(t) > 0 to ell(t) = 0,
        # one dropped row: each breaks the equations
        rows = contact_rows(8)
        raised = {**rows, 5: dict(rows[5])}
        cell = min(raised[5])
        raised[5][cell] += 1
        assert not catalytic_equation_check(8, raised)
        moved = {**rows, 5: dict(rows[5])}
        cell = min(key for key in moved[5] if not key[1][1])
        lower, (asc_t, _) = cell
        moved[5][cell] -= 1
        flagged = (lower, (asc_t, True))
        moved[5][flagged] = moved[5].get(flagged, 0) + 1
        assert not catalytic_equation_check(8, moved)
        dropped = {n: cells for n, cells in rows.items() if n != 8}
        assert not catalytic_equation_check(8, dropped)
        assert catalytic_equation_check(8, rows)

    def test_pde(self):
        assert verify_pde(10)

    def test_pde_negative_control(self):
        # the operators must notice a perturbed series
        order = 10
        root = newton_solve(quartic_equation(), order)
        bump = TruncatedSeries.from_polynomial({(3, 0): 1}, order)
        perturbed = root + bump
        for name, terms in pde_operators().items():
            residual = apply_differential_operator(terms, perturbed)
            assert not residual.truncate(order - 2).is_zero, name

    def test_newton_negative_control(self):
        # is_zero on the residual of a wrong candidate, same machinery
        eq = quartic_equation()
        order = 6
        wrong = newton_solve(eq, order) + TruncatedSeries.from_polynomial(
            {(5, 1): 1}, order)
        assert not substitute(eq, wrong).is_zero

    def test_fusy_humbert(self):
        assert fusy_humbert_check(6, cover_rows(6))

    def test_fusy_humbert_negative_control(self):
        rows = cover_rows(6)
        raised = {**rows, 4: dict(rows[4])}
        raised[4][1, 1] += 1
        assert not fusy_humbert_check(6, raised)
        assert fusy_humbert_check(6, rows)

    def test_verifier_argument_validation(self):
        with pytest.raises(ValueError):
            verify_pde(2)
        with pytest.raises(ValueError):
            catalytic_equation_check(0, {})
        with pytest.raises(ValueError):
            fusy_humbert_check(-1, {})
        with pytest.raises(ValueError):
            canopy_cells(-1)


class TestCanopyCells:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_cells_are_the_cover_table(self, n):
        table = dict(cover_table(1, n, interval_count_formula(n)).cells)
        cells = canopy_rows(canopy_cells(n - 1))[n]
        assert cells == table
        # mirror duality on both routes
        for route in (cells, table):
            assert all(route.get((q, p)) == c for (p, q), c in route.items())

    def test_rows_past_the_engine_match_the_formulas(self):
        rows = canopy_rows(canopy_cells(19))
        assert sorted(rows) == list(range(1, 21))
        for n, row in rows.items():
            for k in range(n):
                assert sum(row.get((p, k - p), 0)
                           for p in range(k + 1)) == a_formula(n, k)
            for p in range(n):
                assert row[p, n - 1 - p] == separated_formula(n, p)
            assert all(row[q, p] == c for (p, q), c in row.items())

    @pytest.mark.parametrize(
        "nmax", [20, pytest.param(30, marks=pytest.mark.extended)])
    def test_one_disagreement_line_is_a_closed_form(self, nmax):
        # [u^q v^p w] F at n = p+q+2: canopies disagreeing at one place
        cells = canopy_cells(nmax - 1)
        for n in range(2, nmax + 1):
            for p in range(n - 1):
                assert cells[n - 2 - p, p, 1] == oracle_one_disagreement(n, p)

    @pytest.mark.parametrize("degree", range(8))
    def test_product_count_is_exact(self, monkeypatch, degree):
        products = []

        def counted(target, p, q, sign=1):
            products.append(len(p) * len(q))
            polys._add_product(target, p, q, sign)

        monkeypatch.setattr("tamari.series._add_product", counted)
        canopy_cells(degree)
        assert sum(products) == canopy_cell_products(degree)

    def test_every_wrong_product_trips_the_self_check(self, monkeypatch):
        # one coefficient off by one in the part the k-th product makes,
        # for every k: the system or F's equation must notice
        degree = 2
        calls = []

        def bumped(k):
            def product(target, p, q, sign=1):
                calls.append(None)
                polys._add_product(target, p, q, sign)
                if len(calls) - 1 == k:
                    target[0] += 1
            return product

        # k = -1 matches no product: this run only counts them
        monkeypatch.setattr("tamari.series._add_product", bumped(-1))
        canopy_cells(degree)
        count = len(calls)
        for k in range(count):
            calls.clear()
            monkeypatch.setattr("tamari.series._add_product", bumped(k))
            with pytest.raises(ArithmeticError, match="canopy"):
                canopy_cells(degree)

    def test_default_budget_admits_twenty_two(self):
        # table refined-pq --nmax N solves to degree N - 1
        assert canopy_cell_products(10) == 45_834
        assert canopy_cell_products(21) == 1_787_002 <= FALLBACK_BUDGET
        assert canopy_cell_products(22) == 2_284_150 > FALLBACK_BUDGET
