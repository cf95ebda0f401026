"""The exact polynomial kernel and its scalar policy.

Core claims:
    - a truncated MonomialPolynomial product equals the exact product
      with the terms above the cap dropped, and a unit times its
      inverse is 1 under the cap
    - truncations do not mix; substituting a weighted variable and
      inverting a non-unit are refused
    - derivative, shift and specialize agree with the exact expansions
    - integer inputs stay int through ZPolynomial, TruncatedSeries and
      Newton; Fraction appears only where a rational does
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamari.polys import MonomialPolynomial, ZPolynomial
from tamari.series import TruncatedSeries, newton_solve, quartic_equation

NVARS = 3

exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
term_maps = st.dictionaries(exponents, st.integers(-5, 5), max_size=6)
weight_tuples = st.tuples(*[st.integers(0, 2)] * NVARS)
positive_weights = st.tuples(*[st.integers(1, 2)] * NVARS)
caps = st.integers(0, 7)


def weighted(expo, weights):
    return sum(w * e for w, e in zip(weights, expo))


# == truncated products and inverses ================================

class TestTruncation:
    @given(term_maps, term_maps, weight_tuples, caps)
    def test_capped_product_is_filtered_exact_product(self, p, q, weights,
                                                      cap):
        exact = MonomialPolynomial(NVARS, p) * MonomialPolynomial(NVARS, q)
        truncation = (weights, cap)
        capped = (MonomialPolynomial(NVARS, p, truncation)
                  * MonomialPolynomial(NVARS, q, truncation))
        assert capped.terms == {
            e: c for e, c in exact.terms.items()
            if weighted(e, weights) <= cap}
        assert capped.truncation == truncation

    @given(term_maps, positive_weights, caps)
    def test_unit_times_inverse_is_one(self, x, weights, cap):
        x.pop((0,) * NVARS, None)
        unit = 1 + MonomialPolynomial(NVARS, x, (weights, cap))
        assert unit * unit.inverse() == 1

    def test_different_truncations_do_not_mix(self):
        a, _, _ = MonomialPolynomial.variables(NVARS, ((1, 1, 1), 3))
        b, _, _ = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 3))
        free, _, _ = MonomialPolynomial.variables(NVARS)
        for other in (b, free):
            with pytest.raises(ValueError):
                a + other
            with pytest.raises(ValueError):
                a * other
        assert (a * a * a * a).terms == {}     # degree 4 > cap 3

    def test_inverse_needs_positive_weighted_degree(self):
        u = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 4))[1]
        with pytest.raises(ArithmeticError):
            (1 + u).inverse()       # u has weight 0
        free_u = MonomialPolynomial.variables(NVARS)[1]
        with pytest.raises(ArithmeticError):
            (1 + free_u).inverse()  # no truncation: no finite inverse
        assert MonomialPolynomial.constant(NVARS, 1).inverse() == 1


# == calculus and substitution =====================================

class TestSubstitution:
    def test_derivative(self):
        x, y = MonomialPolynomial.variables(2)
        p = 3 * x**2 * y + y**3 + 7
        assert p.derivative(0) == 6 * x * y
        assert p.derivative(1) == 3 * x**2 + 3 * y**2

    @given(term_maps, st.integers(-3, 3))
    def test_shift_matches_substitution(self, terms, c):
        t, z, x = MonomialPolynomial.variables(NVARS)
        p = MonomialPolynomial(NVARS, terms)
        expected = MonomialPolynomial.constant(NVARS, 0)
        for (i, j, k), coeff in terms.items():
            expected = expected + coeff * t**i * (z + c)**j * x**k
        assert p.shift(1, c) == expected
        assert p.shift(1, c).shift(1, -c) == p

    def test_specialize(self):
        t, z, x = MonomialPolynomial.variables(NVARS)
        p = t * z**2 + 3 * z * x - 1
        assert p.specialize(1, 2) == 4 * t + 6 * x - 1
        assert p.specialize(1, 0) == -1

    def test_substituting_a_weighted_variable_is_refused(self):
        t, z, _ = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 3))
        p = t * z
        assert p.shift(1, 1) == t * z + t  # weight 0: exact
        with pytest.raises(ValueError):
            p.shift(0, 1)
        with pytest.raises(ValueError):
            p.specialize(0, 2)


# == the scalar policy ==============================================

def _scalars(series):
    return [c for n in range(series.order + 1)
            for c in series.coefficient(n).coeffs]


class TestScalarPolicy:
    def test_integer_inputs_stay_int(self):
        p = ZPolynomial((1, -2, 3))
        q = ZPolynomial.from_pairs([(0, 4), (2, 5), (2, 1)])
        for result in (p + q, p * q, p.shift_z(2), p.derivative(),
                       p.scale(3)):
            assert all(type(c) is int for c in result.coeffs)
        assert type(p.evaluate(5)) is int
        assert type(p.coefficient(7)) is int

    def test_newton_root_is_integral(self):
        root = newton_solve(quartic_equation(), 8)
        assert all(type(c) is int for c in _scalars(root))

    def test_other_inputs_become_fractions(self):
        half = ZPolynomial((0.5, Fraction(1, 3)))
        assert half.coeffs == (Fraction(1, 2), Fraction(1, 3))
        assert all(type(c) is Fraction for c in half.coeffs)

    def test_non_unit_head_divides_through_fraction(self):
        order = 6
        two_minus_t = (TruncatedSeries.one(order).scale(2)
                       - TruncatedSeries.t(order))
        quotient = TruncatedSeries.one(order).div_by_unit(two_minus_t)
        assert _scalars(quotient) == [Fraction(1, 2 ** (k + 1))
                                      for k in range(order + 1)]
        assert all(type(c) is Fraction for c in _scalars(quotient))
        assert quotient * two_minus_t == TruncatedSeries.one(order)

    def test_unit_head_keeps_integers(self):
        order = 6
        one = TruncatedSeries.one(order)
        quotient = one.div_by_unit(TruncatedSeries.t(order) - one)
        assert _scalars(quotient) == [-1] * (order + 1)
        assert all(type(c) is int for c in _scalars(quotient))
