"""Truncated series, the quartic equation, and the analytic identities.

Core claims:
    - TruncatedSeries is an immutable exact ring truncated in t:
      operations land on the common order, equality compares up to the
      common order, units invert, composition and calculus behave
    - the quartic data file is checksummed and regular at the origin;
      shifting z by one reproduces the printed face-side quartic
    - newton_solve extracts the interval series: its rows are the
      interval row polynomials, z = 1 gives interval counts, z = 0
      gives t/(1-t), and the shifted root solves the shifted equation
    - Lagrange: the fixed-point solver matches Newton through the
      rational parametrization, and lagrange_coeff matches the two
      printed closed coefficient forms
    - the catalytic system, the three differential operators, and the
      canopy-pair system all check out; a perturbed series fails
"""

from fractions import Fraction
from math import comb

import pytest

from tamari.equations import load_quartic, pde_operators
from tamari.formulas import a_formula, interval_row_polynomial
from tamari.polys import MonomialPolynomial, ZPolynomial
from tamari.series import (
    PolynomialEquation,
    TruncatedSeries,
    apply_differential_operator,
    catalytic_equation_check,
    fusy_humbert_check,
    lagrange_coeff,
    lagrange_solve,
    newton_solve,
    quartic_equation,
    verify_parametrization,
    verify_pde,
)

# phi for S = t(z+S)(1+S)^3, as {(s_exp, z_exp): coeff}
PHI_CANOPY = {(0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1,
              (1, 0): 1, (2, 0): 3, (3, 0): 3, (4, 0): 1}
# phi for the parametrization variable: s = t(s+1)(sz+1)^3
PHI_PARAM = {(0, 0): 1, (1, 0): 1, (1, 1): 3, (2, 1): 3, (2, 2): 3,
             (3, 2): 3, (3, 3): 1, (4, 3): 1}


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

    def test_compose_in_t(self):
        order = 6
        # 1/(1-t) composed with t^2 = 1/(1-t^2)
        one = TruncatedSeries.one(order)
        geo = one.div_by_unit(one - TruncatedSeries.t(order))
        t_sq = TruncatedSeries.t(order) * TruncatedSeries.t(order)
        composed = geo.compose_in_t(t_sq)
        for n in range(order + 1):
            expected = ZPolynomial((1,)) if n % 2 == 0 else ZPolynomial(())
            assert composed.coefficient(n) == expected
        with pytest.raises(ValueError):
            geo.compose_in_t(one)

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


class TestQuartic:
    def test_data_file_checksummed(self):
        coeffs = load_quartic()
        assert len(coeffs) == 34
        assert max(k for (_, _, k) in coeffs) == 4
        assert quartic_equation().is_regular()

    def test_shift_roundtrip(self):
        eq = quartic_equation()
        assert eq.substitute_z_shift(1).substitute_z_shift(-1).coeffs \
            == eq.coeffs

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
        assert quartic_equation().substitute_z_shift(1).coeffs == printed

    def test_singular_equation_rejected(self):
        bad = PolynomialEquation({(0, 0, 0): 1, (0, 0, 1): 1})
        assert not bad.is_regular()
        with pytest.raises(ValueError):
            newton_solve(bad, 4)
        no_linear = PolynomialEquation({(1, 0, 0): 1, (0, 0, 2): 1})
        assert not no_linear.is_regular()


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
        shifted_eq = quartic_equation().substitute_z_shift(1)
        shifted_root = newton_solve(shifted_eq, self.ORDER)
        assert shifted_root == root.substitute_z_shift(1)

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
    def test_fixed_point_matches_newton(self):
        order = 9
        s_series = lagrange_solve(PHI_PARAM, order)
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
                    assert lagrange_coeff(PHI_PARAM, n, k, r) == param
                    canopy = Fraction(
                        r * comb(n, k) * comb(3 * n, k - r), n) \
                        if r <= k <= n else Fraction(0)
                    assert lagrange_coeff(PHI_CANOPY, n, k, r) == canopy

    def test_coeff_against_series(self):
        order = 7
        s_series = lagrange_solve(PHI_CANOPY, order)
        square = s_series * s_series
        for n in range(1, order + 1):
            for k in range(n + 1):
                assert s_series.coefficient(n).coefficient(k) == \
                    lagrange_coeff(PHI_CANOPY, n, k, 1)
                assert square.coefficient(n).coefficient(k) == \
                    lagrange_coeff(PHI_CANOPY, n, k, 2)

    def test_catalan_special_case(self):
        # phi = (1+s)^2: [t^n] S is the n-th Catalan number
        phi = {(0, 0): 1, (1, 0): 2, (2, 0): 1}
        s_series = lagrange_solve(phi, 8)
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for n in range(1, 9):
            assert s_series.coefficient(n) == ZPolynomial.constant(
                catalan[n])

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            lagrange_solve({(1, 0): 1}, 5)  # phi(0, z) = 0
        with pytest.raises(ValueError):
            lagrange_coeff(PHI_CANOPY, 0, 0, 1)
        assert lagrange_coeff(PHI_CANOPY, 2, 1, 3) == 0  # r > n


# == the verification stack =========================================

class TestVerifiers:
    def test_parametrization(self):
        assert verify_parametrization(13)

    def test_catalytic(self):
        assert catalytic_equation_check(8)

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
        assert not eq.evaluate(wrong).is_zero

    def test_fusy_humbert(self):
        assert fusy_humbert_check(6)

    def test_inverse_of_unit_rejects_non_unit(self):
        # a check that `python -O` cannot strip: 2 + u is no 1 + x
        u, _, _ = MonomialPolynomial.variables(3, ((1, 1, 1), 2))
        with pytest.raises(ArithmeticError):
            (2 + u).inverse()

    def test_verifier_argument_validation(self):
        with pytest.raises(ValueError):
            verify_pde(2)
        with pytest.raises(ValueError):
            catalytic_equation_check(0)
        with pytest.raises(ValueError):
            fusy_humbert_check(-1)
